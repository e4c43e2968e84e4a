"""Regression tests for the GC / state-sync bug fixes.

Covers three defects found alongside the commit-path overhaul:

* ``DagStore.garbage_collect`` used to raise the horizon without
  re-evaluating the pending buffer, stranding vertices parked on pruned
  parents forever and leaking ``_pending`` / ``_waiting_on`` entries.
* ``BullsharkConsensus.fast_forward`` jumped ``last_ordered_anchor_round``
  without reporting the skipped anchor rounds to the schedule manager,
  silently skewing Shoal-style scoring after state sync.
* A schedule change must invalidate the commit scan's
  candidate evaluations for rounds the new schedule covers (their leader
  may have changed after the rounds were already fully inserted).
* A peer asked once used to be trusted with a snapshot forever: a
  second, unrequested response from it could still rewrite the commit
  record.  A snapshot is now adopted only from a peer with a request
  still open, and each response closes one.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.core.manager import HammerHeadScheduleManager, ScheduleManager, StaticScheduleManager
from repro.dag.store import DagStore
from repro.dag.vertex import Vertex, genesis_vertices, make_vertex
from repro.node.config import NodeConfig
from repro.node.messages import FetchResponse
from repro.schedule.base import LeaderSchedule
from repro.schedule.round_robin import initial_schedule
from repro.types import Round, VertexId

from tests.conftest import build_round, vid
from tests.unit.test_node import build_cluster


# -- garbage_collect promotes / purges the pending buffer ----------------------------


class TestGarbageCollectPending:
    def test_gc_promotes_vertices_parked_on_pruned_parents(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        # Round-6 vertices whose round-5 parents never arrive.
        parked = [
            make_vertex(6, source, edges=[vid(5, 0), vid(5, 1), vid(5, 2)])
            for source in committee4.validators
        ]
        for vertex in parked:
            assert dag.add(vertex) is False
        assert dag.pending_count == len(parked)
        # GC moves the horizon past the missing parents: the parked
        # vertices become insertable and must be promoted by the GC call
        # itself (no explicit reconsider_pending()).
        dag.garbage_collect(6)
        assert dag.pending_count == 0
        for vertex in parked:
            assert vertex.id in dag

    def test_gc_purges_pending_below_horizon(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        # A vertex below the future horizon, parked on parents that never
        # arrive.  Its whole sub-DAG is ordered history once the horizon
        # passes it, so it must be dropped, not promoted.
        stale = make_vertex(3, 0, edges=[vid(2, 0), vid(2, 1), vid(2, 2)])
        assert dag.add(stale) is False
        dag.garbage_collect(6)
        assert dag.pending_count == 0
        assert stale.id not in dag

    def test_gc_purges_stale_wait_registrations(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        parked = make_vertex(4, 0, edges=[vid(3, 0), vid(3, 1), vid(3, 2)])
        dag.add(parked)
        assert dag.pending_missing() == {vid(3, 0), vid(3, 1), vid(3, 2)}
        dag.garbage_collect(5)
        # Neither the waiter nor the registrations survive: the waiter is
        # below the horizon and the parents will never arrive.
        assert dag.pending_count == 0
        assert dag.pending_missing() == set()
        assert not dag._waiting_on

    def test_gc_promotion_survives_reentrant_garbage_collect(self, committee4):
        """Insertion callbacks fired by GC promotion may re-enter GC.

        A validator's on_insert callback runs consensus, whose own GC call
        re-enters DagStore.garbage_collect while the outer
        reconsider_pending loop is mid-iteration; entries handled by the
        nested pass must not crash the outer one.
        """
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        parents = [vid(7, 0), vid(7, 1), vid(7, 2)]
        parked = [make_vertex(8, source, edges=parents) for source in committee4.validators]
        for vertex in parked:
            assert dag.add(vertex) is False
        dag.on_insert(lambda vertex: dag.garbage_collect(vertex.round + 1))
        dag.garbage_collect(8)  # raised KeyError before the pop() guards
        assert dag.pending_count == 0

    def test_long_run_pending_buffer_stays_bounded(self, committee4):
        """The leak scenario: stragglers parked below a moving horizon."""
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        for generation in range(20):
            base = 2 * generation + 2
            orphan = make_vertex(
                base, 0, edges=[vid(base - 1, 1), vid(base - 1, 2), vid(base - 1, 3)]
            )
            dag.add(orphan)
            dag.garbage_collect(base + 2)
        # Before the fix every generation left entries behind; now the
        # buffer is empty once the horizon has passed everything.
        assert dag.pending_count == 0
        assert not dag._waiting_on


# -- fast_forward reports the skipped anchor gap -------------------------------------


class RecordingManager(StaticScheduleManager):
    """Static schedule manager that records skip notifications."""

    def __init__(self, committee: Committee, initial: LeaderSchedule) -> None:
        super().__init__(committee, initial)
        self.skipped: List[Round] = []

    def on_anchor_skipped(self, round_number: Round) -> None:
        self.skipped.append(round_number)


def make_recording_consensus(committee: Committee) -> BullsharkConsensus:
    dag = DagStore(committee)
    for vertex in genesis_vertices(committee):
        dag.add(vertex)
    manager = RecordingManager(committee, initial_schedule(committee, seed=0, permute=False))
    return BullsharkConsensus(
        owner=0, committee=committee, dag=dag, schedule_manager=manager, record_sequence=True
    )


class TestFastForwardSkipReporting:
    def test_gap_anchors_reported_from_genesis(self, committee4):
        # The target round itself is the serving peer's last *committed*
        # anchor, so it must not be reported as skipped.
        consensus = make_recording_consensus(committee4)
        assert consensus.fast_forward(8) == 8
        assert consensus.schedule_manager.skipped == [2, 4, 6]

    def test_gap_anchors_reported_from_midstream(self, committee4):
        consensus = make_recording_consensus(committee4)
        consensus.last_ordered_anchor_round = 4
        assert consensus.fast_forward(9) == 10
        assert consensus.schedule_manager.skipped == [6, 8]

    def test_no_jump_reports_nothing(self, committee4):
        consensus = make_recording_consensus(committee4)
        consensus.last_ordered_anchor_round = 10
        assert consensus.fast_forward(6) is None
        assert consensus.schedule_manager.skipped == []

    def test_shoal_scores_see_the_gap(self, committee10):
        """Shoal-style scoring must observe state-sync skips."""
        from repro.core.scoring import ShoalScoring

        dag = DagStore(committee10)
        for vertex in genesis_vertices(committee10):
            dag.add(vertex)
        manager = HammerHeadScheduleManager(
            committee10,
            initial_schedule(committee10, seed=0, permute=False),
            scoring=ShoalScoring(),
        )
        consensus = BullsharkConsensus(
            owner=0, committee=committee10, dag=dag, schedule_manager=manager
        )
        before = manager.scores.as_dict()
        consensus.fast_forward(6)
        after = manager.scores.as_dict()
        assert before != after, "skipped anchors left no trace in the reputation scores"


# -- schedule changes invalidate commit-scan candidates ------------------------------


class SwitchOnceManager(ScheduleManager):
    """Returns a new schedule (new round-4 leader) on the round-2 commit."""

    def __init__(self, committee: Committee, initial: LeaderSchedule) -> None:
        super().__init__(committee, initial)
        self.switched = False

    def on_anchor_committed(self, anchor: Vertex) -> Optional[LeaderSchedule]:
        if anchor.round == 2 and not self.switched:
            self.switched = True
            new_schedule = LeaderSchedule(epoch=1, initial_round=4, slots=(2, 3, 0, 1))
            self.history.append(new_schedule)
            return new_schedule
        return None

    def describe(self) -> str:
        return "test manager switching the round-4 leader after the round-2 commit"


def drive_switch_scenario() -> BullsharkConsensus:
    """Round 4's leader changes *after* rounds 4-5 are fully inserted.

    Under the initial schedule (slots 0,1,2,3 from round 2) the round-4
    leader is validator 1, which never produces a vertex, so round 4 is
    evaluated not-committable while it is inserted.  The withheld round-3
    vote then completes the round-2 quorum; committing round 2 switches to
    a schedule whose round-4 leader is validator 2, whose vertex has a full
    quorum of votes — but no further insertion will ever dirty round 4.
    """
    committee = Committee.build(4)
    dag = DagStore(committee)
    for vertex in genesis_vertices(committee):
        dag.add(vertex)
    manager = SwitchOnceManager(
        committee, LeaderSchedule(epoch=0, initial_round=2, slots=(0, 1, 2, 3))
    )
    consensus = BullsharkConsensus(
        owner=0,
        committee=committee,
        dag=dag,
        schedule_manager=manager,
        record_sequence=True,
    )
    build_round(dag, committee, 1)
    build_round(dag, committee, 2)
    # Round 3: only validator 0 votes for the round-2 anchor (validator 0's
    # vertex); validators 2 and 3 link to the other three parents.  One
    # vote is below the f+1 = 2 threshold, so round 2 stays uncommitted.
    r2 = {vertex.source: vertex.id for vertex in dag.vertices_at(2)}
    r3_vertices = [
        make_vertex(3, 0, edges=list(r2.values())),
        make_vertex(3, 2, edges=[r2[1], r2[2], r2[3]]),
        make_vertex(3, 3, edges=[r2[1], r2[2], r2[3]]),
    ]
    withheld = make_vertex(3, 1, edges=list(r2.values()))
    for vertex in r3_vertices:
        dag.add(vertex)
        consensus.try_commit()
    # Rounds 4 and 5 without validator 1 (the round-4 leader under the
    # initial schedule): round 4 is repeatedly evaluated and dismissed.
    build_round(dag, committee, 4, sources=[0, 2, 3])
    consensus.try_commit()
    build_round(dag, committee, 5, sources=[0, 2, 3])
    consensus.try_commit()
    assert consensus.last_ordered_anchor_round == 0
    # The withheld vote completes round 2's quorum; committing it switches
    # the schedule, making validator 2 the round-4 leader retroactively.
    dag.add(withheld)
    consensus.try_commit()
    return consensus


class TestScheduleChangeInvalidation:
    def test_new_leader_anchor_commits_without_new_insertions(self):
        consensus = drive_switch_scenario()
        assert consensus.last_ordered_anchor_round == 4
        assert consensus.commit_count == 2
        # Round 2 under the initial schedule, then round 4 under the new
        # one: validator 2's anchor closes the sequence.
        ordered = consensus.ordered_ids()
        assert ordered.index(vid(2, 0)) < ordered.index(vid(4, 2))
        assert ordered[-1] == vid(4, 2)


# -- a snapshot needs a request still open -----------------------------------------------


class TestSnapshotNeedsAnOpenRequest:
    @staticmethod
    def _lagging():
        """Validator 3, crashed from the start while the others ran with
        GC depth 4, and validator 2, whose horizon is past 3's frontier."""
        config = NodeConfig(
            max_batch_size=50, min_round_interval=0.05, leader_timeout=0.5, gc_depth=4
        )
        committee, simulator, network, nodes = build_cluster(config=config, dynamic=True)
        for node in nodes.values():
            node.start()
        lagging = nodes[3]
        lagging.crash()
        simulator.run(until=4.0)
        lagging.crashed = False  # handle directly; the network still drops its traffic
        return nodes[2], lagging

    def test_a_second_response_to_one_request_cannot_hand_over_a_snapshot(self):
        donor, lagging = self._lagging()
        lagging.synchronizer.request({vid(lagging.dag.highest_round() + 1, 2)}, preferred_peer=2)
        assert lagging.synchronizer.open_requests[2] == 1
        # Peer 2 answers the one request: nothing it can serve.
        lagging._handle_fetch_response(
            2, FetchResponse(responder=2, vertices=(), responder_gc_round=0)
        )
        assert lagging.synchronizer.open_requests[2] == 0

        # A second response, unasked for, carrying a snapshot past our
        # frontier and history above our horizon.
        tip = donor.dag.vertex_of(donor.dag.highest_round() - 1, 2)
        vertices = tuple(donor.dag.causal_history(tip.id))
        assert vertices and all(vertex.round >= lagging.dag.lowest_round for vertex in vertices)
        response = FetchResponse(
            responder=2,
            vertices=vertices,
            responder_gc_round=donor.dag.lowest_round,
            snapshot=donor.consensus_snapshot(),
        )
        assert response.responder_gc_round > lagging.dag.highest_round() + 1
        assert len(response.snapshot.schedules) > len(lagging.schedule_manager.history)
        before = (
            lagging.consensus.last_ordered_anchor_round,
            list(lagging.schedule_manager.history),
            lagging.dag.lowest_round,
        )
        lagging._handle_fetch_response(2, response)
        assert (
            lagging.consensus.last_ordered_anchor_round,
            list(lagging.schedule_manager.history),
            lagging.dag.lowest_round,
        ) == before
        # Its vertices are still ingested: their parents were pruned by
        # the responder, so they wait in the pending buffer.
        assert lagging.synchronizer.vertices_received == lagging.synchronizer.vertices_new == len(vertices)
        parked = {vertex.id for vertex in lagging.dag.pending_vertices()}
        assert {vertex.id for vertex in vertices} <= parked
