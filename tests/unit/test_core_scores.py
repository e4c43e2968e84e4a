"""Unit tests for reputation scores and scoring rules."""

import pytest

from repro.core.scores import ReputationScores
from repro.core.scoring import (
    CarouselScoring,
    HammerHeadScoring,
    ScoringView,
    ShoalScoring,
)
from repro.errors import ScheduleError


class TestReputationScores:
    def test_scores_start_at_zero(self, committee4):
        scores = ReputationScores(committee4)
        assert all(scores.as_dict()[validator] == 0.0 for validator in committee4.validators)

    def test_add_accumulates(self, committee4):
        scores = ReputationScores(committee4)
        scores.add(1)
        scores.add(1, 2.0)
        assert scores.as_dict()[1] == 3.0

    def test_add_unknown_validator_rejected(self, committee4):
        with pytest.raises(ScheduleError):
            ReputationScores(committee4).add(99)

    def test_reset_zeroes_everything(self, committee4):
        scores = ReputationScores(committee4)
        scores.add(0, 5.0)
        scores.reset()
        assert scores.as_dict()[0] == 0.0

    def test_an_exported_table_does_not_follow_later_updates(self, committee4):
        scores = ReputationScores(committee4)
        scores.add(2, 1.0)
        exported = scores.as_dict()
        scores.add(2, 1.0)
        assert exported[2] == 1.0
        assert scores.as_dict()[2] == 2.0

    def test_ranked_ascending_breaks_ties_by_id(self, committee4):
        scores = ReputationScores(committee4)
        scores.add(3, 1.0)
        assert scores.ranked_ascending() == [0, 1, 2, 3]

    def test_ranked_descending_breaks_ties_by_id(self, committee4):
        scores = ReputationScores(committee4)
        scores.add(2, 1.0)
        assert scores.ranked_descending() == [2, 0, 1, 3]

    def test_lowest_by_stake_budget_equal_stake(self, committee10):
        scores = ReputationScores(committee10)
        for validator in range(5, 10):
            scores.add(validator, 10.0)
        # Budget of 3 stake -> the three lowest scorers (ids 0, 1, 2).
        assert scores.lowest_by_stake_budget(3) == [0, 1, 2]

    def test_lowest_by_stake_budget_zero(self, committee10):
        assert ReputationScores(committee10).lowest_by_stake_budget(0) == []

    def test_highest_excludes_given_validators(self, committee4):
        scores = ReputationScores(committee4)
        scores.add(0, 5.0)
        scores.add(1, 4.0)
        assert scores.highest(2, excluding=[0]) == [1, 2]

    def test_highest_caps_at_committee_size(self, committee4):
        scores = ReputationScores(committee4)
        assert len(scores.highest(10)) == 4

    def test_as_dict_names_every_validator(self, committee4):
        scores = ReputationScores(committee4)
        scores.add(3, 7.0)
        assert scores.as_dict() == {0: 0.0, 1: 0.0, 2: 0.0, 3: 7.0}

    def test_as_dict_is_a_copy(self, committee4):
        scores = ReputationScores(committee4)
        exported = scores.as_dict()
        exported[0] = 99.0
        assert scores.as_dict()[0] == 0.0


class TestScoringRules:
    def _context(self, committee):
        return ScoringView(committee=committee, scores=ReputationScores(committee))

    def test_hammerhead_scores_votes(self, committee4):
        context = self._context(committee4)
        rule = HammerHeadScoring()
        rule.on_vote(1, anchor_round=2, context=context)
        rule.on_vote(1, anchor_round=4, context=context)
        rule.on_vote(2, anchor_round=4, context=context)
        assert context.scores.as_dict()[1] == 2.0
        assert context.scores.as_dict()[2] == 1.0
        assert context.scores.as_dict()[0] == 0.0

    def test_hammerhead_ignores_commit_and_skip_events(self, committee4):
        context = self._context(committee4)
        rule = HammerHeadScoring()
        rule.on_anchor_committed(0, 2, context)
        rule.on_anchor_skipped(1, 4, context)
        rule.on_vertex_in_committed_subdag(2, 3, context)
        assert all(context.scores.as_dict()[validator] == 0.0 for validator in committee4.validators)

    def test_hammerhead_custom_points(self, committee4):
        context = self._context(committee4)
        HammerHeadScoring(points_per_vote=0.5).on_vote(0, 2, context)
        assert context.scores.as_dict()[0] == 0.5

    def test_shoal_rewards_committed_and_punishes_skipped(self, committee4):
        context = self._context(committee4)
        rule = ShoalScoring()
        rule.on_anchor_committed(0, 2, context)
        rule.on_anchor_committed(0, 4, context)
        rule.on_anchor_skipped(1, 6, context)
        assert context.scores.as_dict()[0] == 2.0
        assert context.scores.as_dict()[1] == -1.0

    def test_shoal_ignores_votes(self, committee4):
        context = self._context(committee4)
        ShoalScoring().on_vote(2, 2, context)
        assert context.scores.as_dict()[2] == 0.0

    def test_carousel_scores_committed_subdag_presence(self, committee4):
        context = self._context(committee4)
        rule = CarouselScoring()
        rule.on_vertex_in_committed_subdag(3, 1, context)
        rule.on_vertex_in_committed_subdag(3, 2, context)
        assert context.scores.as_dict()[3] == 2.0

    def test_rule_names_are_distinct(self):
        names = {HammerHeadScoring.name, ShoalScoring.name, CarouselScoring.name}
        assert names == {"hammerhead", "shoal", "carousel"}
