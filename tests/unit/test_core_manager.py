"""Unit tests for the schedule managers (static baseline and HammerHead)."""

import pytest

from repro.core.manager import HammerHeadScheduleManager, StaticScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.core.scoring import ShoalScoring
from repro.dag.vertex import make_vertex
from repro.errors import ScheduleError
from repro.schedule.round_robin import initial_schedule
from tests.conftest import vid


def make_anchor(round_number, source, parents_round_sources):
    return make_vertex(
        round_number,
        source,
        edges=[vid(round_number - 1, parent) for parent in parents_round_sources],
    )


class TestStaticScheduleManager:
    def test_leader_never_changes(self, committee4):
        schedule = initial_schedule(committee4, permute=False)
        manager = StaticScheduleManager(committee4, schedule)
        leaders_before = [manager.leader_for_round(round_number) for round_number in (2, 4, 6, 8)]
        anchor = make_anchor(2, leaders_before[0], [0, 1, 2])
        for _ in range(50):
            assert manager.on_anchor_committed(anchor) is None
        leaders_after = [manager.leader_for_round(round_number) for round_number in (2, 4, 6, 8)]
        assert leaders_before == leaders_after
        assert manager.epochs == 1

    def test_round_robin_rotation(self, committee4):
        manager = StaticScheduleManager(committee4, initial_schedule(committee4, permute=False))
        assert [manager.leader_for_round(round_number) for round_number in (2, 4, 6, 8, 10)] == [
            0,
            1,
            2,
            3,
            0,
        ]

    def test_leader_for_odd_round_rejected(self, committee4):
        manager = StaticScheduleManager(committee4, initial_schedule(committee4, permute=False))
        with pytest.raises(ScheduleError):
            manager.leader_for_round(3)


class TestHammerHeadScheduleManager:
    def _manager(self, committee, commits=2, exclude_fraction=1 / 3, scoring=None):
        schedule = initial_schedule(committee, permute=False)
        return HammerHeadScheduleManager(
            committee,
            schedule,
            policy=CommitCountPolicy(commits),
            scoring=scoring,
            exclude_fraction=exclude_fraction,
        )

    def test_votes_from_ordered_vertices_accumulate_scores(self, committee4):
        manager = self._manager(committee4)
        # Leader of round 2 is validator 0 (round robin, no permutation).
        voter = make_vertex(3, 1, edges=[vid(2, 0), vid(2, 1), vid(2, 2)])
        manager.on_subdag_ordered((voter,))
        assert manager.scores.as_dict()[1] == 1.0

    def test_non_votes_do_not_score(self, committee4):
        manager = self._manager(committee4)
        # A round-3 vertex that does not link to the round-2 leader (0).
        non_voter = make_vertex(3, 2, edges=[vid(2, 1), vid(2, 2), vid(2, 3)])
        manager.on_subdag_ordered((non_voter,))
        assert manager.scores.as_dict()[2] == 0.0

    def test_even_round_vertices_do_not_vote(self, committee4):
        manager = self._manager(committee4)
        vertex = make_vertex(2, 1, edges=[vid(1, 0), vid(1, 1), vid(1, 2)])
        manager.on_subdag_ordered((vertex,))
        assert all(manager.scores.as_dict()[validator] == 0.0 for validator in committee4.validators)

    def test_schedule_change_after_commit_threshold(self, committee4):
        manager = self._manager(committee4, commits=2)
        anchor2 = make_anchor(2, 0, [0, 1, 2])
        anchor4 = make_anchor(4, 1, [0, 1, 2])
        assert manager.on_anchor_committed(anchor2) is None
        new_schedule = manager.on_anchor_committed(anchor4)
        assert new_schedule is not None
        assert new_schedule.epoch == 1
        assert new_schedule.initial_round == 6
        assert manager.epochs == 2
        assert manager.active_schedule is new_schedule

    def test_scores_reset_after_schedule_change(self, committee4):
        manager = self._manager(committee4, commits=1)
        voter = make_vertex(3, 1, edges=[vid(2, 0), vid(2, 1), vid(2, 2)])
        manager.on_subdag_ordered((voter,))
        manager.on_anchor_committed(make_anchor(2, 0, [0, 1, 2]))
        assert all(manager.scores.as_dict()[validator] == 0.0 for validator in committee4.validators)
        assert manager.commits_in_epoch == 0

    def test_change_records_capture_scores(self, committee4):
        manager = self._manager(committee4, commits=1)
        voter = make_vertex(3, 1, edges=[vid(2, 0), vid(2, 1), vid(2, 2)])
        manager.on_subdag_ordered((voter,))
        manager.on_anchor_committed(make_anchor(2, 0, [0, 1, 2]))
        assert len(manager.change_records) == 1
        record = manager.change_records[0]
        assert record.scores[1] == 1.0
        assert record.new_initial_round == 4

    def test_low_scorers_lose_leader_slots(self, committee10):
        manager = self._manager(committee10, commits=1)
        # Validators 7, 8, 9 never vote; everyone else votes for the
        # round-2 leader (validator 0).
        manager.on_subdag_ordered(
            [make_vertex(3, voter, edges=[vid(2, source) for source in range(7)]) for voter in range(7)]
        )
        new_schedule = manager.on_anchor_committed(make_anchor(2, 0, list(range(7))))
        assert new_schedule is not None
        for crashed in (7, 8, 9):
            assert new_schedule.slots_of(crashed) == 0
        # No future anchor round is ever assigned to the crashed validators.
        leaders = {new_schedule.leader_for_round(round_number) for round_number in range(4, 60, 2)}
        assert leaders.isdisjoint({7, 8, 9})

    def test_retroactive_lookup_uses_schedule_history(self, committee4):
        manager = self._manager(committee4, commits=1)
        manager.leader_for_round(4)
        manager.on_anchor_committed(make_anchor(2, 0, [0, 1, 2]))
        # Round 4 now falls under the new schedule (starting at round 4),
        # but round 2 is still resolved against the original schedule.
        assert manager.leader_for_round(2) == 0
        assert manager.schedule_for_round(2).epoch == 0
        assert manager.schedule_for_round(4).epoch == 1

    def test_old_anchor_does_not_retrigger_change(self, committee4):
        manager = self._manager(committee4, commits=1)
        manager.on_anchor_committed(make_anchor(2, 0, [0, 1, 2]))
        assert manager.epochs == 2
        # An anchor from before the new schedule's start commits late
        # (e.g. on a lagging validator): it must not trigger another change.
        assert manager.on_anchor_committed(make_anchor(2, 1, [0, 1, 2])) is None
        assert manager.epochs == 2

    def test_shoal_scoring_demotes_skipped_leaders(self, committee10):
        manager = self._manager(committee10, commits=1, scoring=ShoalScoring())
        # The leaders of rounds 2 and 4 were skipped before an anchor at
        # round 6 committed.
        manager.on_anchor_skipped(2)
        manager.on_anchor_skipped(4)
        new_schedule = manager.on_anchor_committed(make_anchor(6, 2, list(range(7))))
        assert new_schedule is not None
        skipped_leaders = {0, 1}  # round-robin leaders of rounds 2 and 4
        for leader in skipped_leaders:
            assert new_schedule.slots_of(leader) == 0
