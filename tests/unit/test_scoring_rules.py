"""Unit tests for the scoring-rule registry, the ScoringView, and
CompletenessScoring's vote accounting."""

import pytest

from repro.core.manager import HammerHeadScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.core.scoring import (
    CarouselScoring,
    CompletenessScoring,
    HammerHeadScoring,
    ScoringRule,
    ShoalScoring,
    make_scoring_rule,
    register_scoring_rule,
    scoring_rule_names,
    SCORING_RULE_REGISTRY,
)
from repro.dag.vertex import make_vertex
from repro.errors import ConfigurationError
from repro.schedule.round_robin import initial_schedule
from tests.conftest import vid


def make_manager(committee, commits=2, scoring=None):
    return HammerHeadScheduleManager(
        committee,
        initial_schedule(committee, permute=False),
        policy=CommitCountPolicy(commits),
        scoring=scoring,
    )


def make_anchor(round_number, source, parent_sources):
    return make_vertex(
        round_number,
        source,
        edges=[vid(round_number - 1, parent) for parent in parent_sources],
    )


class TestScoringRuleRegistry:
    def test_builtin_rules_registered_in_order(self):
        names = scoring_rule_names()
        assert names[:4] == ("hammerhead", "shoal", "carousel", "completeness")

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("hammerhead", HammerHeadScoring),
            ("shoal", ShoalScoring),
            ("carousel", CarouselScoring),
            ("completeness", CompletenessScoring),
        ],
    )
    def test_make_scoring_rule(self, name, cls):
        rule = make_scoring_rule(name)
        assert isinstance(rule, cls)
        assert rule.name == name

    def test_unknown_rule_rejected_with_known_list(self):
        with pytest.raises(ConfigurationError, match="completeness"):
            make_scoring_rule("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_scoring_rule("hammerhead", HammerHeadScoring)

    def test_custom_rule_registers_and_unregisters(self):
        class NullRule(ScoringRule):
            name = "null-rule"

        register_scoring_rule("null-rule", NullRule)
        try:
            assert isinstance(make_scoring_rule("null-rule"), NullRule)
            assert "null-rule" in scoring_rule_names()
        finally:
            del SCORING_RULE_REGISTRY["null-rule"]

    def test_replace_flag_allows_override(self):
        original = SCORING_RULE_REGISTRY["carousel"]
        try:
            register_scoring_rule("carousel", CarouselScoring, replace=True)
        finally:
            SCORING_RULE_REGISTRY["carousel"] = original


class TestScoringView:
    def test_commit_accounting(self, committee4):
        manager = make_manager(committee4, commits=5)
        manager.on_anchor_committed(make_anchor(2, 0, [0, 1, 2]))
        manager.on_anchor_committed(make_anchor(4, 1, [0, 1, 2]))
        assert manager.commits_in_epoch == 2

    def test_count_rules_do_not_track_votes(self, committee4):
        manager = make_manager(committee4, scoring=HammerHeadScoring())
        voter = make_vertex(3, 1, edges=[vid(2, 0), vid(2, 1), vid(2, 2)])
        manager.on_vertex_ordered(make_anchor(2, 0, [0, 1, 2]))
        manager.on_vertex_ordered(voter)
        view = manager._view
        assert view.votes_cast == {}
        assert view.votes_expected == {}


class TestCompletenessScoring:
    def _feed_round(self, manager, anchor_round, leader, voters, withholders):
        """Order the leader vertex of ``anchor_round`` and the round+1
        vertices of ``voters`` (linking) and ``withholders`` (not)."""
        committee = manager.committee
        manager.on_vertex_ordered(
            make_anchor(anchor_round, leader, list(committee.validators))
        )
        for voter in voters:
            manager.on_vertex_ordered(
                make_vertex(
                    anchor_round + 1,
                    voter,
                    edges=[vid(anchor_round, source) for source in committee.validators],
                )
            )
        others = [v for v in committee.validators if v != leader]
        for withholder in withholders:
            manager.on_vertex_ordered(
                make_vertex(
                    anchor_round + 1,
                    withholder,
                    edges=[vid(anchor_round, source) for source in others],
                )
            )

    def test_expected_and_cast_counting(self, committee4):
        manager = make_manager(committee4, scoring=CompletenessScoring())
        view = manager._view
        self._feed_round(manager, 2, leader=0, voters=(1, 2), withholders=(3,))
        assert view.votes_expected == {1: 1, 2: 1, 3: 1}
        assert view.votes_cast == {1: 1, 2: 1}
        manager.scoring.prepare_epoch_scores(view)
        assert manager.scores.as_dict() == {0: 0.0, 1: 1.0, 2: 1.0, 3: 0.0}

    def test_scores_materialized_at_schedule_change(self, committee4):
        manager = make_manager(committee4, commits=2, scoring=CompletenessScoring())
        self._feed_round(manager, 2, leader=0, voters=(0, 1, 2), withholders=(3,))
        self._feed_round(manager, 4, leader=1, voters=(0, 1, 2), withholders=(3,))
        manager.on_anchor_committed(make_anchor(2, 0, [0, 1, 2]))
        changed = manager.on_anchor_committed(make_anchor(4, 1, [0, 1, 2]))
        assert changed is not None
        record = manager.change_records[0]
        assert record.scoring == "completeness"
        assert record.scores[0] == 1.0
        assert record.scores[1] == 1.0
        assert record.scores[3] == 0.0
        # The withholder lost its slots to a perfect-completeness peer.
        assert changed.slot_counts().get(3, 0) < manager.history[0].slot_counts()[3]
        # Epoch accounting reset with the change.
        assert manager._view.votes_cast == {}
        assert manager._view.votes_expected == {}

    def test_votes_before_leader_count_retroactively(self, committee4):
        manager = make_manager(committee4, scoring=CompletenessScoring())
        view = manager._view
        # Round-3 vertices of 1 and 2 are ordered *before* the round-2
        # leader vertex: not yet countable.
        others = [v for v in committee4.validators if v != 0]
        for voter in (1, 2):
            manager.on_vertex_ordered(
                make_vertex(3, voter, edges=[vid(2, source) for source in others])
            )
        assert view.votes_expected == {}
        # The leader vertex of round 2 arrives late in the linearization:
        # both missed votes become countable opportunities now.
        manager.on_vertex_ordered(make_anchor(2, 0, [0, 1, 2]))
        assert view.votes_expected == {1: 1, 2: 1}
        assert view.votes_cast == {}

    def test_never_ordered_leader_never_counts(self, committee4):
        manager = make_manager(committee4, scoring=CompletenessScoring())
        view = manager._view
        others = [v for v in committee4.validators if v != 0]
        manager.on_vertex_ordered(
            make_vertex(3, 1, edges=[vid(2, source) for source in others])
        )
        # No leader vertex ever enters the prefix; pruning drops the
        # pending opportunity without counting it.
        view.prune_below(10_000)
        manager.on_vertex_ordered(make_anchor(2, 0, [0, 1, 2]))
        assert view.votes_expected == {}

    def test_zero_opportunity_scores_zero(self, committee4):
        rule = CompletenessScoring()
        manager = make_manager(committee4, commits=1, scoring=rule)
        self._feed_round(manager, 2, leader=0, voters=(1,), withholders=())
        manager.on_anchor_committed(make_anchor(2, 0, [0, 1, 2]))
        record = manager.change_records[0]
        assert record.scores[1] == 1.0
        # Validators 2 and 3 had no ordered round-3 vertices at all.
        assert record.scores[2] == 0.0
        assert record.scores[3] == 0.0

    def test_scale_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            CompletenessScoring(scale=0.0)

    def test_state_sync_round_trip(self, committee4):
        source = make_manager(committee4, commits=10, scoring=CompletenessScoring())
        self._feed_round(source, 2, leader=0, voters=(1, 2), withholders=(3,))
        others = [v for v in committee4.validators if v != 1]
        # Park a pending (not yet countable) missed vote too.
        source.on_vertex_ordered(
            make_vertex(5, 2, edges=[vid(4, source_id) for source_id in others])
        )
        source.on_anchor_committed(make_anchor(2, 0, [0, 1, 2]))
        blob = source.vote_accounting_snapshot()
        assert blob is not None

        target = make_manager(committee4, commits=10, scoring=CompletenessScoring())
        target.adopt_state(
            list(source.history),
            source.scores.as_dict(),
            source.commits_in_epoch,
            vote_accounting=blob,
        )
        view = target._view
        assert view.votes_cast == source._view.votes_cast
        assert view.votes_expected == source._view.votes_expected
        assert view.ordered_leaders == source._view.ordered_leaders
        assert view.pending_votes == source._view.pending_votes
        # The parked vote is adopted too: when the round-4 leader orders,
        # both managers count the retro opportunity identically.
        for manager in (source, target):
            manager.on_vertex_ordered(make_anchor(4, 1, [0, 1, 2]))
        assert target._view.votes_expected == source._view.votes_expected

    def test_count_rules_snapshot_is_none(self, committee4):
        manager = make_manager(committee4, scoring=ShoalScoring())
        assert manager.vote_accounting_snapshot() is None
