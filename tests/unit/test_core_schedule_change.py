"""Unit tests for schedule-change policies and next-schedule computation."""

import pytest

from repro.committee import Committee, geometric_stake
from repro.core.schedule_change import (
    CommitCountPolicy,
    compute_next_schedule,
    select_swap_sets,
)
from repro.core.scores import ReputationScores
from repro.errors import ScheduleError
from repro.schedule.base import LeaderSchedule


class TestPolicies:
    def test_commit_count_policy_triggers_at_threshold(self):
        policy = CommitCountPolicy(10)
        schedule = LeaderSchedule(epoch=0, initial_round=2, slots=(0, 1))
        assert not policy.should_change(9, 20, schedule)
        assert policy.should_change(10, 20, schedule)
        assert policy.should_change(11, 20, schedule)

    def test_commit_count_policy_ignores_rounds(self):
        policy = CommitCountPolicy(5)
        schedule = LeaderSchedule(epoch=0, initial_round=2, slots=(0,))
        assert not policy.should_change(1, 1000, schedule)

    def test_commit_count_policy_rejects_non_positive(self):
        with pytest.raises(ScheduleError):
            CommitCountPolicy(0)

    def test_policies_describe_themselves(self):
        assert "10" in CommitCountPolicy(10).describe()


class TestSwapSelection:
    def test_bottom_and_top_are_selected(self, committee10):
        scores = ReputationScores(committee10)
        for validator in committee10.validators:
            scores.add(validator, float(validator))  # validator i has score i
        demoted, promoted = select_swap_sets(scores, committee10, exclude_fraction=1 / 3)
        assert demoted == [0, 1, 2]
        assert promoted == [9, 8, 7]

    def test_sets_are_equal_size_and_disjoint(self, committee10):
        scores = ReputationScores(committee10)
        scores.add(5, 3.0)
        demoted, promoted = select_swap_sets(scores, committee10)
        assert len(demoted) == len(promoted)
        assert not set(demoted) & set(promoted)

    def test_stake_budget_respected_with_weighted_stake(self):
        committee = Committee.build(4, stake=geometric_stake(4, ratio=0.5, scale=8))
        # Stakes: 8, 4, 2, 1 (total 15).  Budget of one third (5 stake).
        scores = ReputationScores(committee)
        scores.add(0, -1.0)  # the heavy validator performs worst
        demoted, promoted = select_swap_sets(scores, committee, exclude_fraction=1 / 3)
        # Validator 0 holds 8 stake > 5 budget, so it cannot be demoted;
        # the two cheapest low scorers that fit are selected instead.
        assert 0 not in demoted
        assert committee.stake(demoted) <= 5

    def test_zero_fraction_changes_nothing(self, committee10):
        scores = ReputationScores(committee10)
        demoted, promoted = select_swap_sets(scores, committee10, exclude_fraction=0.0)
        assert demoted == [] and promoted == []

    def test_invalid_fraction_rejected(self, committee10):
        with pytest.raises(ScheduleError):
            select_swap_sets(ReputationScores(committee10), committee10, exclude_fraction=1.0)


class TestComputeNextSchedule:
    def _scores(self, committee, low, high):
        scores = ReputationScores(committee)
        for validator in committee.validators:
            if validator in low:
                scores.add(validator, 0.0)
            elif validator in high:
                scores.add(validator, 10.0)
            else:
                scores.add(validator, 5.0)
        return scores

    def test_low_scorers_lose_slots_to_high_scorers(self, committee10):
        previous = LeaderSchedule(epoch=0, initial_round=2, slots=tuple(range(10)))
        scores = self._scores(committee10, low={0, 1, 2}, high={7, 8, 9})
        next_schedule = compute_next_schedule(previous, scores, committee10, new_initial_round=22)
        assert next_schedule.epoch == 1
        assert next_schedule.initial_round == 22
        # The demoted validators hold no slots any more.
        counts = next_schedule.slot_counts()
        assert counts.get(0, 0) == 0
        assert counts.get(1, 0) == 0
        assert counts.get(2, 0) == 0
        # The promoted validators doubled their representation.
        assert counts[7] == 2
        assert counts[8] == 2
        assert counts[9] == 2
        # Everyone else keeps exactly one slot.
        assert all(counts[validator] == 1 for validator in range(3, 7))

    def test_total_slot_count_is_preserved(self, committee10):
        previous = LeaderSchedule(epoch=0, initial_round=2, slots=tuple(range(10)))
        scores = self._scores(committee10, low={4}, high={5})
        next_schedule = compute_next_schedule(previous, scores, committee10, new_initial_round=30)
        assert len(next_schedule.slots) == len(previous.slots)

    def test_promotion_is_round_robin_over_good_set(self, committee10):
        # Two slots of the same bad validator are replaced by two different
        # good validators in turn.
        previous = LeaderSchedule(
            epoch=0, initial_round=2, slots=(0, 0, 1, 2, 3, 4, 5, 6, 7, 8)
        )
        scores = self._scores(committee10, low={0, 1, 2}, high={7, 8, 9})
        next_schedule = compute_next_schedule(previous, scores, committee10, new_initial_round=22)
        replaced = next_schedule.slots[:2]
        assert replaced[0] != replaced[1]
        assert set(replaced) <= {7, 8, 9}

    def test_new_schedule_must_start_later(self, committee10):
        previous = LeaderSchedule(epoch=0, initial_round=10, slots=tuple(range(10)))
        scores = ReputationScores(committee10)
        with pytest.raises(ScheduleError):
            compute_next_schedule(previous, scores, committee10, new_initial_round=10)

    def test_new_schedule_must_start_on_anchor_round(self, committee10):
        previous = LeaderSchedule(epoch=0, initial_round=2, slots=tuple(range(10)))
        with pytest.raises(ScheduleError):
            compute_next_schedule(
                previous, ReputationScores(committee10), committee10, new_initial_round=7
            )

    def test_equal_scores_still_produce_valid_schedule(self, committee10):
        # With all-equal scores ties are broken by id; the schedule remains
        # a valid permutation of the same multiset size.
        previous = LeaderSchedule(epoch=0, initial_round=2, slots=tuple(range(10)))
        scores = ReputationScores(committee10)
        next_schedule = compute_next_schedule(previous, scores, committee10, new_initial_round=22)
        assert len(next_schedule.slots) == 10
        assert set(next_schedule.slots) <= set(committee10.validators)

    def test_crashed_validators_with_zero_score_are_excluded(self, committee10):
        # Validators 7, 8, 9 crashed (score 0); everyone else scored 10.
        previous = LeaderSchedule(epoch=0, initial_round=2, slots=tuple(range(10)))
        scores = self._scores(committee10, low={7, 8, 9}, high=set(range(7)))
        next_schedule = compute_next_schedule(previous, scores, committee10, new_initial_round=22)
        for crashed in (7, 8, 9):
            assert next_schedule.slots_of(crashed) == 0
