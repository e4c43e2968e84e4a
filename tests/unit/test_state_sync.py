"""Unit tests for the state-sync building blocks (fast forward, pending
reconsideration)."""

import hashlib

from repro.core.manager import StaticScheduleManager
from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices, make_vertex
from repro.faults.crash import CrashRecoveryFault
from repro.netexec.codec import encode
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import compile_spec
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner
from tests.conftest import make_consensus, drive_rounds, vid
from tests.doubles import FlatNetwork, OrderRecorder, record_orders


class TestConsensusFastForward:
    def test_fast_forward_moves_last_ordered_round(self, committee4):
        consensus = make_consensus(committee4)
        new_round = consensus.fast_forward(100)
        assert new_round == 100
        assert consensus.last_ordered_anchor_round == 100
        assert consensus.state_sync_gaps == [(0, 100)]

    def test_fast_forward_rounds_up_to_even(self, committee4):
        consensus = make_consensus(committee4)
        assert consensus.fast_forward(101) == 102

    def test_fast_forward_never_goes_backwards(self, committee4):
        consensus = make_consensus(committee4)
        drive_rounds(consensus, committee4, rounds=9)
        before = consensus.last_ordered_anchor_round
        assert consensus.fast_forward(2) is None
        assert consensus.last_ordered_anchor_round == before

    def test_ordering_resumes_after_fast_forward(self, committee4):
        consensus = make_consensus(committee4)
        consensus.fast_forward(4)
        # Rounds 1..4 below the sync point never arrive; the DAG keeps
        # growing from round 5 as if they had been pruned.
        consensus.dag.garbage_collect(5)
        from tests.conftest import build_round

        # Round-5 vertices reference round-4 parents that were pruned
        # everywhere; the GC horizon treats them as present.
        frontier = [
            make_vertex(5, source, edges=[vid(4, 0), vid(4, 1), vid(4, 2)])
            for source in committee4.validators
        ]
        for vertex in frontier:
            consensus.dag.add(vertex)
            consensus.process_vertex(vertex)
        for round_number in range(6, 10):
            for vertex in build_round(consensus.dag, committee4, round_number):
                consensus.process_vertex(vertex)
        assert consensus.commit_count > 0
        assert consensus.last_ordered_anchor_round >= 6


class TestOrderedVerticesInASnapshot:
    """The engine keeps ordered vertices as per-round source masks; a
    ``ConsensusSnapshot`` carries them as a set of ids."""

    def test_masks_to_ids_to_masks_is_the_identity_above_the_horizon(self, committee4):
        donor = make_consensus(committee4)
        order = OrderRecorder(donor)
        drive_rounds(donor, committee4, rounds=11, sources=[0, 1, 3])
        assert len(donor.ordered_sources) > 6
        for horizon in (0, 4, 7):
            ids = donor.ordered_from(horizon)
            assert ids == {
                vertex_id for vertex_id in order.ids() if vertex_id.round >= horizon
            }
            adopter = make_consensus(committee4)
            adopter.adopt_ordered(ids)
            assert adopter.ordered_sources == {
                round_number: mask
                for round_number, mask in donor.ordered_sources.items()
                if round_number >= horizon
            }
            assert adopter.ordered_from(0) == ids

    def test_adopted_ids_outside_the_committee_are_not_marked(self, committee4):
        adopter = make_consensus(committee4)
        adopter.adopt_ordered([vid(3, 1), vid(3, 4), vid(3, 2**33), vid(5, -1), vid(-2, 0)])
        assert adopter.ordered_sources == {3: 0b10, -2: 0b1}
        assert adopter.ordered_from(-2) == {vid(3, 1), vid(-2, 0)}

    def test_the_pinned_state_sync_run_adopts_a_byte_identical_snapshot(self):
        """``rolling-crash-churn``: validator 9 recovers, finds history pruned
        and adopts one snapshot.  Length and digest of its encoding were
        recorded at the parent of the change that introduced the masks."""
        (config,) = [
            point.config
            for point in compile_spec(get_scenario("rolling-crash-churn"))
            if point.protocol == "hammerhead"
        ]
        runner = SimulationRunner(config)
        node = runner.nodes[9]
        adopted = []
        maybe_state_sync = node._maybe_state_sync

        def recorded(sender, response):
            gaps = len(node.consensus.state_sync_gaps)
            maybe_state_sync(sender, response)
            if len(node.consensus.state_sync_gaps) > gaps:
                adopted.append(response.snapshot)

        node._maybe_state_sync = recorded
        runner.run()
        (snapshot,) = adopted
        encoded = encode(snapshot)
        assert (len(snapshot.ordered_vertices), snapshot.gc_round, len(encoded)) == (330, 50, 7400)
        assert hashlib.sha256(encoded).hexdigest() == (
            "9231d5c4999c80b595d4027c4913bfb7727df708cf829776bc41d9740dd7042c"
        )
        assert set(snapshot.ordered_vertices) <= node.consensus.ordered_from(0)


class TestBullsharkStateSync:
    def test_a_static_schedule_validator_adopts_a_snapshot_and_rejoins_the_order(self):
        """A Bullshark validator down for longer than the GC window resumes
        from a peer's snapshot: its static manager adopts it as a no-op,
        and from there it orders exactly what its peers order."""
        plan = CrashRecoveryFault(validators=(3,), crash_at=3.0, recover_at=15.0)
        config = ExperimentConfig(
            protocol="bullshark",
            committee_size=4,
            input_load_tps=100.0,
            duration=25.0,
            warmup=5.0,
            seed=4,
            leader_timeout=1.0,
            min_round_interval=0.10,
            extra_faults=(FlatNetwork(), plan),
        )
        runner = SimulationRunner(config)
        orders = record_orders(runner.nodes)
        node = runner.nodes[3]
        manager = node.schedule_manager
        assert type(manager) is StaticScheduleManager
        schedules = list(manager.history)
        adopted = []
        adopt_state = manager.adopt_state

        def recorded(*arguments, **keywords):
            adopted.append(arguments)
            adopt_state(*arguments, **keywords)

        manager.adopt_state = recorded
        runner.run()
        assert len(adopted) == 1 and len(node.consensus.state_sync_gaps) == 1
        assert manager.history == schedules
        reference = orders[0].ids()
        positions = {vertex_id: index for index, vertex_id in enumerate(reference)}
        mine = [positions[vertex_id] for vertex_id in orders[3].ids()]
        # The prefix ordered before the crash, one jump over the adopted
        # interval, then the peers' order without a gap to the end.
        split = next(index for index in range(1, len(mine)) if mine[index] != mine[index - 1] + 1)
        assert mine[:split] == list(range(split))
        assert mine[split:] == list(range(mine[split], mine[split] + len(mine) - split))
        assert len(mine) - split > 50 and mine[-1] == len(reference) - 1


class TestReconsiderPending:
    def test_pending_promoted_after_horizon_moves(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        # A vertex at round 5 whose parents (round 4) we will never receive.
        orphan = make_vertex(5, 0, edges=[vid(4, 0), vid(4, 1), vid(4, 2)])
        assert dag.add(orphan) is False
        assert len(dag.pending_vertices()) == 1
        # garbage_collect itself re-evaluates the pending buffer, so the
        # orphan is promoted without an explicit reconsider_pending() call.
        dag.garbage_collect(before_round=5)
        assert orphan.id in dag
        assert len(dag.pending_vertices()) == 0
        assert dag.reconsider_pending() == 0

    def test_reconsider_without_horizon_change_is_noop(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        orphan = make_vertex(2, 0, edges=[vid(1, 0), vid(1, 1), vid(1, 2)])
        dag.add(orphan)
        assert dag.reconsider_pending() == 0
        assert len(dag.pending_vertices()) == 1
