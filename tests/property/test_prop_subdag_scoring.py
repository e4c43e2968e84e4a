"""The sub-DAG scoring hand-off against the per-vertex reference.

``HammerHeadScheduleManager.on_subdag_ordered`` takes a committed sub-DAG
in one call; ``tests/reference_scoring.py`` feeds the same vertices one at
a time through the per-vertex body it replaced.  Two managers, one per
side, see the same generated committed sequence: sub-DAGs of vertices
whose edges are adjacent or not (a second edge two rounds down, an anchor
round's leader missing or present, a vote ordered before its leader),
each followed by skipped anchors and a committed anchor under a policy
that changes the schedule every one to three commits.  After every step
both managers must hold the same scores, vote accounting, schedules and
change records, under each registered rule and under a rule that
overrides every hook and logs its calls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committee import Committee
from repro.core.manager import HammerHeadScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.core.scoring import CompletenessScoring, make_scoring_rule
from repro.dag.vertex import make_vertex
from repro.schedule.round_robin import initial_schedule
from repro.types import VertexId
from tests.conftest import decoded_vertex
from tests.reference_scoring import reference_vertex_ordered

RULES = ("hammerhead", "shoal", "carousel", "completeness")


class LoggingRule(CompletenessScoring):
    """Completeness scoring that overrides every hook and logs each call."""

    name = "logging"

    def __init__(self) -> None:
        super().__init__()
        self.log = []

    def on_vote(self, voter, anchor_round, context):
        self.log.append(("vote", voter, anchor_round))
        context.scores.add(voter, 1.0)

    def on_expected_vote(self, voter, anchor_round, voted, context):
        self.log.append(("expected", voter, anchor_round, voted))

    def on_vertex_in_committed_subdag(self, source, round_number, context):
        self.log.append(("vertex", source, round_number))

    def on_anchor_committed(self, leader, anchor_round, context):
        self.log.append(("committed", leader, anchor_round))

    def on_anchor_skipped(self, leader, anchor_round, context):
        self.log.append(("skipped", leader, anchor_round))


@st.composite
def committed_sequences(draw):
    """``(size, commits per schedule, steps)``; a step is ``(vertices,
    skipped anchor rounds, committed anchor round)``."""
    size = draw(st.integers(4, 7))
    sources = st.integers(0, size - 1)
    steps = []
    anchor_round = 0
    for _ in range(draw(st.integers(1, 8))):
        previous_anchor = anchor_round
        anchor_round += 2 * draw(st.integers(1, 3))
        vertices = []
        for _ in range(draw(st.integers(0, 14))):
            round_number = draw(st.integers(max(0, previous_anchor - 2), anchor_round + 1))
            source = draw(sources)
            if round_number == 0:
                vertices.append(decoded_vertex(0, source, ()))
                continue
            parents = draw(st.sets(sources, min_size=1, max_size=size))
            edges = [VertexId(round_number - 1, parent) for parent in parents]
            if round_number >= 2 and draw(st.booleans()):
                # Not adjacent: the vote test must read the edges, not the mask.
                edges.append(VertexId(round_number - 2, draw(sources)))
            vertices.append(decoded_vertex(round_number, source, edges))
        skipped = tuple(range(previous_anchor + 2, anchor_round, 2))
        steps.append((vertices, skipped, anchor_round))
    return size, draw(st.integers(1, 3)), steps


_COMMITTEES = {}


def manager_pair(size, commits, rule_name):
    committee = _COMMITTEES.get(size) or _COMMITTEES.setdefault(size, Committee.build(size))
    return [
        HammerHeadScheduleManager(
            committee,
            initial_schedule(committee, seed=size),
            policy=CommitCountPolicy(commits),
            scoring=LoggingRule() if rule_name == "logging" else make_scoring_rule(rule_name),
        )
        for _ in range(2)
    ]


def state(manager):
    view = manager._view
    return (
        manager.scores.as_dict(),
        dict(view.votes_cast),
        dict(view.votes_expected),
        set(view.ordered_leaders),
        {anchor_round: set(voters) for anchor_round, voters in view.pending_votes.items()},
        manager.commits_in_epoch,
        [(schedule.initial_round, schedule.slots) for schedule in manager.history],
        manager.change_records,
        getattr(manager.scoring, "log", None),
    )


@pytest.mark.parametrize("rule_name", RULES + ("logging",))
@settings(max_examples=60, deadline=None)
@given(sequence=committed_sequences())
def test_a_subdag_scores_as_its_vertices_one_by_one(rule_name, sequence):
    size, commits, steps = sequence
    batched, reference = manager_pair(size, commits, rule_name)
    for vertices, skipped, anchor_round in steps:
        batched.on_subdag_ordered(vertices)
        for vertex in vertices:
            reference_vertex_ordered(reference, vertex)
        assert state(batched) == state(reference)
        for round_number in skipped:
            batched.on_anchor_skipped(round_number)
            reference.on_anchor_skipped(round_number)
        leader = batched.leader_for_round(anchor_round)
        assert reference.leader_for_round(anchor_round) == leader
        anchor = make_vertex(anchor_round, leader, [VertexId(anchor_round - 1, 0)])
        assert (batched.on_anchor_committed(anchor) is None) == (reference.on_anchor_committed(anchor) is None)
        assert state(batched) == state(reference)


def test_the_one_vertex_form_is_a_subdag_of_one():
    committee = Committee.build(4)
    managers = [HammerHeadScheduleManager(committee, initial_schedule(committee, permute=False)) for _ in range(2)]
    voter = make_vertex(3, 1, [VertexId(2, 0), VertexId(2, 1), VertexId(2, 2)])
    managers[0].on_vertex_ordered(voter)
    managers[1].on_subdag_ordered((voter,))
    assert managers[0].scores.as_dict() == managers[1].scores.as_dict() == {0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0}
