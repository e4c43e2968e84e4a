"""Unit tests for leader schedules and their construction."""

import pytest

from repro.committee import Committee, geometric_stake
from repro.errors import ScheduleError
from repro.schedule.base import LeaderSchedule
from repro.schedule.round_robin import (
    initial_schedule,
    stake_weighted_slots,
)


class TestLeaderSchedule:
    def test_leader_rotation(self):
        schedule = LeaderSchedule(epoch=0, initial_round=2, slots=(0, 1, 2, 3))
        assert schedule.leader_for_round(2) == 0
        assert schedule.leader_for_round(4) == 1
        assert schedule.leader_for_round(6) == 2
        assert schedule.leader_for_round(8) == 3
        assert schedule.leader_for_round(10) == 0  # wraps around

    def test_rotation_respects_initial_round(self):
        schedule = LeaderSchedule(epoch=1, initial_round=10, slots=(5, 6))
        assert schedule.leader_for_round(10) == 5
        assert schedule.leader_for_round(12) == 6
        assert schedule.leader_for_round(14) == 5

    def test_repeated_slots_keep_their_place_in_the_rotation(self):
        schedule = LeaderSchedule(epoch=0, initial_round=2, slots=(2, 0, 2, 1))
        assert [schedule.leader_for_round(r) for r in range(2, 20, 2)] == [2, 0, 2, 1, 2, 0, 2, 1, 2]

    def test_round_zero_has_no_leader(self):
        schedule = LeaderSchedule(epoch=0, initial_round=0, slots=(0, 1))
        with pytest.raises(ScheduleError):
            schedule.leader_for_round(0)
        assert schedule.leader_for_round(2) == 1

    def test_odd_round_has_no_leader(self):
        schedule = LeaderSchedule(epoch=0, initial_round=2, slots=(0, 1))
        with pytest.raises(ScheduleError):
            schedule.leader_for_round(3)

    def test_round_before_schedule_rejected(self):
        schedule = LeaderSchedule(epoch=1, initial_round=10, slots=(0, 1))
        with pytest.raises(ScheduleError):
            schedule.leader_for_round(8)

    def test_slot_counts(self):
        schedule = LeaderSchedule(epoch=0, initial_round=2, slots=(0, 1, 0, 2))
        assert schedule.slot_counts() == {0: 2, 1: 1, 2: 1}
        assert schedule.slots_of(0) == 2
        assert schedule.slots_of(3) == 0

    def test_empty_slots_rejected(self):
        with pytest.raises(ScheduleError):
            LeaderSchedule(epoch=0, initial_round=2, slots=())

    def test_odd_initial_round_rejected(self):
        with pytest.raises(ScheduleError):
            LeaderSchedule(epoch=0, initial_round=3, slots=(0,))

    def test_negative_initial_round_rejected(self):
        with pytest.raises(ScheduleError):
            LeaderSchedule(epoch=0, initial_round=-2, slots=(0,))

    def test_negative_epoch_rejected(self):
        with pytest.raises(ScheduleError):
            LeaderSchedule(epoch=-1, initial_round=2, slots=(0,))


class TestScheduleConstruction:
    def test_stake_weighted_slots_equal_stake(self, committee10):
        # Equal stakes reduce to one slot each.
        assert stake_weighted_slots(committee10) == tuple(range(10))

    def test_stake_weighted_slots_proportional(self):
        committee = Committee.build(3, stake=geometric_stake(3, ratio=0.5, scale=4))
        # Stakes 4, 2, 1: validator 0 gets 4 slots, 1 gets 2, 2 gets 1.
        slots = stake_weighted_slots(committee)
        assert slots.count(0) == 4
        assert slots.count(1) == 2
        assert slots.count(2) == 1

    def test_stake_weighted_slots_with_cycle_length(self):
        committee = Committee.build(3, stake=geometric_stake(3, ratio=0.5, scale=4))
        slots = stake_weighted_slots(committee, cycle_length=7)
        assert len(slots) >= 3
        assert set(slots) == {0, 1, 2}

    def test_initial_schedule_is_permutation_of_stake_slots(self, committee10):
        schedule = initial_schedule(committee10, seed=3)
        assert sorted(schedule.slots) == list(range(10))
        assert schedule.epoch == 0
        assert schedule.initial_round == 2

    def test_initial_schedule_is_deterministic_per_seed(self, committee10):
        assert initial_schedule(committee10, seed=5).slots == initial_schedule(committee10, seed=5).slots

    def test_initial_schedule_differs_across_seeds(self, committee10):
        slots_by_seed = {initial_schedule(committee10, seed=seed).slots for seed in range(6)}
        assert len(slots_by_seed) > 1

    def test_initial_schedule_without_permutation(self, committee10):
        schedule = initial_schedule(committee10, permute=False)
        assert schedule.slots == tuple(range(10))

    def test_every_validator_has_a_slot_under_equal_stake(self, committee10):
        schedule = initial_schedule(committee10, seed=1)
        assert set(schedule.slots) == set(committee10.validators)

    def test_stake_proportional_leader_frequency(self):
        # A validator with half the stake leads half the rounds.
        committee = Committee.build(3, stake=geometric_stake(3, ratio=0.5, scale=4))
        schedule = initial_schedule(committee, seed=0, permute=False)
        rounds = [schedule.leader_for_round(round_number) for round_number in range(2, 2 + 2 * 7, 2)]
        assert rounds.count(0) == 4
        assert rounds.count(1) == 2
        assert rounds.count(2) == 1
