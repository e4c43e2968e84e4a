"""Unit tests for the coalition coordinator and the coordinated policies."""

import pickle
from functools import partial

import pytest

from repro.behavior import (
    AdaptiveEquivocationPolicy,
    AdaptiveSilentFanoutPolicy,
    AdversaryCoordinator,
    CoalitionGamingPolicy,
    ColludingSilencePolicy,
)
from repro.core.manager import StaticScheduleManager
from repro.schedule.base import LeaderSchedule
from repro.schedule.round_robin import initial_schedule
from tests.conftest import vid


class FakeNode:
    """The minimal node surface the coordinated policies read."""

    def __init__(self, node_id, committee, current_round=1):
        self.id = node_id
        self.committee = committee
        self.current_round = current_round
        self.schedule_manager = StaticScheduleManager(
            committee, initial_schedule(committee, permute=False)
        )


class TestAdversaryCoordinator:
    def test_membership_is_sorted_and_deduplicated(self):
        coordinator = AdversaryCoordinator((9, 7, 8, 7))
        assert coordinator.members == (7, 8, 9)

    def test_duty_rotates_deterministically(self):
        coordinator = AdversaryCoordinator((7, 8, 9))
        duties = [coordinator.duty_member(r) for r in (2, 4, 6, 8, 10, 12)]
        assert duties == [8, 9, 7, 8, 9, 7]
        # Same membership, same roster — regardless of construction order.
        again = AdversaryCoordinator((9, 8, 7))
        assert [again.duty_member(r) for r in (2, 4, 6, 8, 10, 12)] == duties

    def test_stride_leaves_off_beat_anchors_unattacked(self):
        coordinator = AdversaryCoordinator((7, 8), stride=2)
        duties = [coordinator.duty_member(r) for r in (2, 4, 6, 8, 10, 12, 14, 16)]
        # Block of len(members) * stride = 4 anchors: two duty, two off.
        assert duties == [8, None, None, 7, 8, None, None, 7]

    def test_odd_rounds_have_no_duty(self):
        coordinator = AdversaryCoordinator((7, 8))
        assert coordinator.duty_member(3) is None

    def test_victim_split_covers_everything_once(self):
        coordinator = AdversaryCoordinator((7, 8, 9))
        victims = (1, 2, 3, 4, 5)
        slices = [coordinator.split_victims(m, victims) for m in coordinator.members]
        flattened = [victim for piece in slices for victim in piece]
        assert sorted(flattened) == sorted(victims)
        assert len(set(flattened)) == len(victims)

    def test_non_member_gets_full_victim_set(self):
        coordinator = AdversaryCoordinator((7, 8))
        assert coordinator.split_victims(3, (1, 2)) == (1, 2)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AdversaryCoordinator(())
        with pytest.raises(ValueError):
            AdversaryCoordinator((1,), stride=0)


class TestColludingSilencePolicy:
    def test_victims_split_on_attach(self, committee10):
        coordinator = AdversaryCoordinator((7, 8, 9))
        policies = {}
        for member in (7, 8, 9):
            policy = ColludingSilencePolicy(victims=(1, 2, 3))
            policy.join(coordinator)
            policy.attach(FakeNode(member, committee10))
            policies[member] = policy
        assigned = [policies[m]._assigned for m in (7, 8, 9)]
        assert sorted(v for piece in assigned for v in piece) == [1, 2, 3]
        # Each member only denies its own slice.
        for policy in policies.values():
            for victim in (1, 2, 3):
                assert policy.should_ack(victim, 4) == (victim not in policy._assigned)
                assert policy.should_serve_fetch(victim) == (
                    victim not in policy._assigned
                )

    def test_solo_install_silences_all_victims(self, committee10):
        policy = ColludingSilencePolicy(victims=(1, 2))
        policy.attach(FakeNode(9, committee10))
        assert policy._assigned == frozenset({1, 2})
        plan = policy.plan_fanout(None, 4, list(committee10.validators))
        recipients = {send.recipient for send in plan}
        assert recipients == set(committee10.validators) - {1, 2}


class TestAdaptiveSilentFanoutPolicy:
    def _policy(self, committee, member=9, members=(7, 8, 9), stride=1, round_number=3):
        policy = AdaptiveSilentFanoutPolicy(stride=stride)
        policy.join(AdversaryCoordinator(members, stride=stride))
        policy.attach(FakeNode(member, committee, current_round=round_number))
        return policy

    def test_targets_track_the_upcoming_leader(self, committee10):
        policy = self._policy(committee10, member=9)
        # Duty roster for (7,8,9): anchor 4 -> member 9 (4//2 % 3 == 2).
        leader_of_4 = policy.node.schedule_manager.leader_for_round(4)
        assert policy._duty_targets(3) == frozenset({leader_of_4})
        # Off-duty rounds target nobody.
        assert policy._duty_targets(5) == frozenset()

    def test_targets_follow_schedule_changes(self, committee10):
        policy = self._policy(committee10, member=9)
        manager = policy.node.schedule_manager
        # Swap in a new schedule that elects validator 5 everywhere.
        manager.history.append(
            LeaderSchedule(epoch=1, initial_round=4, slots=(5,))
        )
        assert policy._duty_targets(3) == frozenset({5})

    def test_duty_member_withholds_the_vote(self, committee10):
        policy = self._policy(committee10, member=9)
        parents = [vid(4, source) for source in committee10.validators]
        kept = policy.select_parents(5, list(parents))
        leader = policy.node.schedule_manager.leader_for_round(4)
        assert vid(4, leader) not in kept
        assert len(kept) == len(parents) - 1
        # Off-duty proposals stay honest.
        parents6 = [vid(6, source) for source in committee10.validators]
        assert policy.select_parents(7, list(parents6)) == parents6

    def test_withholding_can_be_disabled(self, committee10):
        policy = AdaptiveSilentFanoutPolicy(stride=1, withhold_votes=False)
        policy.join(AdversaryCoordinator((9,)))
        policy.attach(FakeNode(9, committee10))
        parents = [vid(4, source) for source in committee10.validators]
        assert policy.select_parents(5, list(parents)) == parents

    def test_fanout_excludes_only_duty_targets(self, committee10):
        policy = self._policy(committee10, member=9)
        plan = policy.plan_fanout(None, 3, list(committee10.validators))
        leader = policy.node.schedule_manager.leader_for_round(4)
        assert {send.recipient for send in plan} == set(committee10.validators) - {leader}
        assert policy.plan_fanout(None, 5, list(committee10.validators)) is None


class TestAdaptiveEquivocationPolicy:
    def test_victims_recomputed_per_round(self, committee10):
        policy = AdaptiveEquivocationPolicy(lookahead=2)
        policy.attach(FakeNode(9, committee10))
        manager = policy.node.schedule_manager
        # plan_fanout on a non-propose message still recomputes victims
        # before delegating (twin construction returns None for it).
        policy.plan_fanout(object(), 3, list(committee10.validators))
        assert set(policy.victims) == {
            manager.leader_for_round(4),
            manager.leader_for_round(6),
        }


class TestCoalitionGamingPolicy:
    def test_only_the_duty_member_withholds(self, committee10):
        coordinator = AdversaryCoordinator((7, 8, 9), stride=1)
        policies = {}
        for member in (7, 8, 9):
            policy = CoalitionGamingPolicy(stride=1)
            policy.join(coordinator)
            policy.attach(FakeNode(member, committee10))
            policies[member] = policy
        parents = [vid(4, source) for source in committee10.validators]
        leader = policies[9].node.schedule_manager.leader_for_round(4)
        duty = coordinator.duty_member(4)
        for member, policy in policies.items():
            kept = policy.select_parents(5, list(parents))
            if member == duty:
                assert vid(4, leader) not in kept
            else:
                assert kept == parents

    def test_policy_factories_are_picklable(self):
        for factory in (
            partial(CoalitionGamingPolicy, stride=3),
            partial(AdaptiveSilentFanoutPolicy, stride=2),
            partial(ColludingSilencePolicy, victims=(1, 2)),
            partial(AdaptiveEquivocationPolicy, lookahead=2),
        ):
            rebuilt = pickle.loads(pickle.dumps(factory))
            assert rebuilt().describe()

    def test_describe_mentions_the_coalition(self, committee10):
        policy = CoalitionGamingPolicy()
        policy.join(AdversaryCoordinator((7, 8, 9)))
        assert "7, 8, 9" in policy.describe()
