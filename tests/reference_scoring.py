"""The schedule manager's scoring hand-off, one ordered vertex at a time.

``HammerHeadScheduleManager.on_subdag_ordered`` folds a committed sub-DAG
in one call: it looks each vote round's leader up once and reads the
vote off the edge mask where it can.  This is the per-vertex form it
replaced, kept as the oracle it must agree with: every leader is looked
up where it is read, every vote is a search of the edges, and a hook the
rule does not define is the no-op the rule interface once declared.
``tests/property/test_prop_subdag_scoring.py`` holds the two together.
"""

from repro.core.manager import HammerHeadScheduleManager
from repro.core.scoring import ScoringRule
from repro.dag.vertex import Vertex
from repro.types import VertexId, is_anchor_round


def _hook(rule: ScoringRule, name: str):
    return getattr(rule, name, lambda *arguments: None)


def reference_vertex_ordered(manager: HammerHeadScheduleManager, vertex: Vertex) -> None:
    """Update ``manager``'s reputation from one newly linearized vertex.

    Scoring looks one round back: if this vertex links to the leader
    vertex of the previous (anchor) round, the vertex's source voted for
    that leader.
    """
    view = manager._view
    _hook(manager.scoring, "on_vertex_in_committed_subdag")(vertex.source, vertex.round, view)
    previous_round = vertex.round - 1
    if not is_anchor_round(previous_round):
        # ``vertex.round`` is an anchor round (or 0/1): record the leader
        # vertex entering the committed prefix, which is what later marks
        # its round-``r+1`` voters as *expected*.
        if (
            manager._track_votes
            and is_anchor_round(vertex.round)
            and vertex.source == manager.leader_for_round(vertex.round)
        ):
            # Voters whose non-voting vertex preceded this leader in the
            # linearization missed a vote that only now became countable.
            for voter in view.note_leader_ordered(vertex.round):
                view.note_expected_vote(voter, False)
                _hook(manager.scoring, "on_expected_vote")(voter, vertex.round, False, view)
        return
    leader = manager.leader_for_round(previous_round)
    voted = VertexId(round=previous_round, source=leader) in vertex.edges
    if manager._track_votes:
        if view.leader_was_ordered(previous_round):
            # The vote was possible: count the opportunity either way.
            view.note_expected_vote(vertex.source, voted)
            _hook(manager.scoring, "on_expected_vote")(vertex.source, previous_round, voted, view)
        elif not voted:
            # The leader vertex may still enter the prefix later.
            view.note_vote_before_leader(vertex.source, previous_round)
    if voted:
        _hook(manager.scoring, "on_vote")(vertex.source, previous_round, view)
