"""Unit tests for the state-sync building blocks (fast forward, pending
reconsideration, sweep helpers)."""

import hashlib

import pytest

from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices, make_vertex
from repro.netexec.codec import encode
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import compile_spec
from repro.sim.experiment import ExperimentConfig
from repro.sim.runner import SimulationRunner
from repro.sim.sweep import (
    compare_systems,
    curve_points,
    latency_at_peak,
    latency_throughput_curve,
    peak_throughput,
    reports_of,
)
from tests.conftest import make_consensus, drive_rounds, vid


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
        drive_rounds(donor, committee4, rounds=11, sources=[0, 1, 3])
        assert len(donor.ordered_sources) > 6
        for horizon in (0, 4, 7):
            ids = donor.ordered_from(horizon)
            assert ids == {
                record.vertex.id for record in donor.ordered_sequence if record.vertex.round >= horizon
            }
            adopter = make_consensus(committee4)
            adopter.adopt_ordered(ids)
            assert adopter.ordered_sources == {
                round_number: mask
                for round_number, mask in donor.ordered_sources.items()
                if round_number >= horizon
            }
            assert adopter.ordered_from(0) == ids
            assert all(adopter.is_ordered(vertex_id) for vertex_id in ids)

    def test_adopted_ids_outside_the_committee_are_not_marked(self, committee4):
        adopter = make_consensus(committee4)
        adopter.adopt_ordered([vid(3, 1), vid(3, 4), vid(3, 2**33), vid(5, -1), vid(-2, 0)])
        assert adopter.ordered_sources == {3: 0b10, -2: 0b1}
        assert adopter.is_ordered(vid(3, 1))
        assert not adopter.is_ordered(vid(3, 2**33)) and not adopter.is_ordered(vid(5, -1))

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

        def recorded(response):
            gaps = len(node.consensus.state_sync_gaps)
            maybe_state_sync(response)
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
        assert all(node.consensus.is_ordered(vertex_id) for vertex_id in snapshot.ordered_vertices)


class TestReconsiderPending:
    def test_pending_promoted_after_horizon_moves(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        # A vertex at round 5 whose parents (round 4) we will never receive.
        orphan = make_vertex(5, 0, edges=[vid(4, 0), vid(4, 1), vid(4, 2)])
        assert dag.add(orphan) is False
        assert dag.pending_count == 1
        # garbage_collect itself re-evaluates the pending buffer, so the
        # orphan is promoted without an explicit reconsider_pending() call.
        dag.garbage_collect(before_round=5)
        assert orphan.id in dag
        assert dag.pending_count == 0
        assert dag.reconsider_pending() == 0

    def test_reconsider_without_horizon_change_is_noop(self, committee4):
        dag = DagStore(committee4)
        for vertex in genesis_vertices(committee4):
            dag.add(vertex)
        orphan = make_vertex(2, 0, edges=[vid(1, 0), vid(1, 1), vid(1, 2)])
        dag.add(orphan)
        assert dag.reconsider_pending() == 0
        assert dag.pending_count == 1


class TestSweepHelpers:
    @pytest.fixture(scope="class")
    def tiny_results(self):
        config = ExperimentConfig(
            committee_size=4,
            input_load_tps=100.0,
            duration=10.0,
            warmup=2.0,
            latency_model="uniform",
            min_round_interval=0.10,
            leader_timeout=1.0,
            seed=8,
        )
        return latency_throughput_curve(config, loads=[50.0, 100.0])

    def test_curve_has_one_result_per_load(self, tiny_results):
        assert len(tiny_results) == 2
        assert tiny_results[0].config.input_load_tps == 50.0
        assert tiny_results[1].config.input_load_tps == 100.0

    def test_curve_points_match_reports(self, tiny_results):
        points = curve_points(tiny_results)
        assert len(points) == 2
        for (throughput, latency), result in zip(points, tiny_results):
            assert throughput == result.throughput
            assert latency == result.avg_latency

    def test_peak_throughput_and_latency_at_peak(self, tiny_results):
        peak = peak_throughput(tiny_results)
        assert peak == max(result.throughput for result in tiny_results)
        assert latency_at_peak(tiny_results) > 0.0

    def test_reports_of(self, tiny_results):
        reports = reports_of(tiny_results)
        assert len(reports) == 2
        assert all(report.committee_size == 4 for report in reports)

    def test_empty_sweep_helpers(self):
        assert peak_throughput([]) == 0.0
        assert latency_at_peak([]) == 0.0

    def test_compare_systems_covers_both_protocols(self):
        config = ExperimentConfig(
            committee_size=4,
            input_load_tps=80.0,
            duration=8.0,
            warmup=2.0,
            latency_model="uniform",
            min_round_interval=0.10,
            leader_timeout=1.0,
            seed=9,
        )
        curves = compare_systems(config, loads=[80.0])
        assert set(curves) == {"hammerhead", "bullshark"}
        assert all(len(results) == 1 for results in curves.values())
