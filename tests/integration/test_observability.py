"""Differential digest-neutrality suite for the observability layer.

The tentpole guarantee: turning tracing on changes *nothing* the
protocol computes — byte-identical ordering digests and identical full
DAG state — while producing a faithful, deterministic event stream.
"""

import pytest

from repro.obs.trace import KNOWN_KINDS
from repro.scenarios import get_scenario
from repro.scenarios.spec import compile_spec
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.sim.runner import SimulationRunner


def dag_fingerprint(runner):
    """Full DAG state per node: every vertex's identity, digest, and
    edge set, plus the pending buffer — byte-comparable across runs."""
    state = {}
    for validator, node in sorted(runner.nodes.items()):
        vertices = sorted(
            (vertex.round, vertex.source, vertex.digest, vertex.edges)
            for vertex in node.dag
        )
        state[validator] = (
            node.dag.lowest_round,
            node.dag.highest_round(),
            tuple(vertices),
            tuple(sorted(node.dag.pending_missing())),
        )
    return state


def run_pair(**overrides):
    """Run the same config with tracing off and on; return both runners."""
    base = ExperimentConfig(**overrides)
    plain = SimulationRunner(base)
    plain_result = plain.run()
    traced = SimulationRunner(base.with_overrides(trace=True))
    traced_result = traced.run()
    return plain, plain_result, traced, traced_result


class TestDigestNeutrality:
    @pytest.mark.parametrize("committee_size", [10, 25])
    def test_tracing_is_digest_and_state_neutral(self, committee_size):
        plain, plain_result, traced, traced_result = run_pair(
            committee_size=committee_size,
            duration=10.0,
            warmup=2.0,
            input_load_tps=300.0,
            faults=1,
            fault_time=3.0,
            seed=3,
        )
        # Byte-identical ordering digests on every validator.
        assert traced_result.ordering_digests == plain_result.ordering_digests
        # Identical schedule evolution and full DAG state.
        assert traced_result.schedule_histories == plain_result.schedule_histories
        assert dag_fingerprint(traced) == dag_fingerprint(plain)
        # And the traced run actually observed the protocol.
        assert len(traced_result.trace) > 0
        assert plain_result.trace == []

    @pytest.mark.parametrize("scenario_name", ["reputation-gamer", "adaptive-dos"])
    def test_adversarial_scenarios_trace_neutral(self, scenario_name):
        """Behavior-policy adversaries (including the coordinated DoS
        coalition) emit adversary events without bending any decision."""
        spec = get_scenario(scenario_name).smoke()
        point = compile_spec(spec, seed=spec.seed)[0]
        plain = run_experiment(point.config)
        traced = run_experiment(point.config.with_overrides(trace=True))
        assert traced.ordering_digests == plain.ordering_digests
        assert traced.report.committed_transactions == plain.report.committed_transactions
        assert len(traced.trace) > 0
        # The detailed registry tier only exists on the traced run.
        assert "detailed" in traced.counters
        assert "detailed" not in plain.counters

    def test_trace_events_are_well_formed_and_reproducible(self):
        config = ExperimentConfig(
            committee_size=4, duration=8.0, warmup=1.0, input_load_tps=200.0,
            faults=1, fault_time=2.0, seed=5, trace=True,
        )
        first = run_experiment(config)
        second = run_experiment(config)
        # Same config + seed -> byte-identical event stream.
        assert first.trace == second.trace
        for event in first.trace:
            assert event["kind"] in KNOWN_KINDS
            assert isinstance(event["t"], float)

    def test_recovery_reinstalls_tracing(self):
        """Crash recovery rebuilds dag/consensus/broadcast; the recovered
        node must keep emitting (the re-propagation path)."""
        from repro.faults.crash import CrashRecoveryFault

        config = ExperimentConfig(
            committee_size=4,
            duration=12.0,
            warmup=1.0,
            input_load_tps=100.0,
            extra_faults=(CrashRecoveryFault(validators=(3,), crash_at=3.0, recover_at=6.0),),
            seed=4,
            trace=True,
        )
        result = run_experiment(config)
        kinds = {event["kind"] for event in result.trace}
        assert "validator_crashed" in kinds and "validator_recovered" in kinds
        recovered_at = next(
            event["t"] for event in result.trace if event["kind"] == "validator_recovered"
        )
        post_recovery = [
            event
            for event in result.trace
            if event.get("node") == 3
            and event["t"] > recovered_at
            and event["kind"] in ("vertex_proposed", "vertex_inserted", "anchor_committed")
        ]
        assert post_recovery, "recovered node went dark — observability not reinstalled"


class TestCountersContract:
    def test_always_on_counters_present_without_tracing(self):
        result = run_experiment(
            ExperimentConfig(committee_size=4, duration=5.0, warmup=1.0, input_load_tps=100.0)
        )
        always = result.counters["always"]
        assert always["net.messages_sent"] > 0
        assert always["node.proposals_made"] > 0
        assert "memo.broadcast_digest.hits" in always
        assert "memo.signer_quorum.hits" in always

    def test_detailed_counters_track_message_types(self):
        result = run_experiment(
            ExperimentConfig(
                committee_size=4, duration=5.0, warmup=1.0, input_load_tps=100.0, trace=True
            )
        )
        detailed = result.counters["detailed"]
        assert any(name.startswith("messages.") for name in detailed["counters"])
        assert any(name.startswith("bytes.") for name in detailed["counters"])
        assert "rbc.batch_fill" in detailed.get("histograms", {})


class TestCliEndToEnd:
    def test_scenarios_run_trace_flag_writes_jsonl(self, capsys, tmp_path, monkeypatch):
        from repro.obs import query
        from repro.scenarios.cli import main as scenarios_main

        monkeypatch.chdir(tmp_path)
        trace_path = tmp_path / "t.jsonl"
        code = scenarios_main(
            ["run", "faultless", "--smoke", "--parallelism", "1", "--trace", str(trace_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"wrote trace {trace_path}" in out
        events = query.load_trace(str(trace_path))
        assert query.point_labels(events)  # tagged with point labels
        assert all("seed" in event for event in events)

    def test_obs_trace_then_explain_first_skip(self, capsys, tmp_path, monkeypatch):
        """The CI observability-smoke recipe: trace a faulty scenario,
        then explain its first skipped anchor from the JSONL alone."""
        from repro.obs.cli import main as obs_main

        monkeypatch.chdir(tmp_path)
        trace_path = tmp_path / "f2.jsonl"
        code = obs_main(
            ["trace", "figure2-faults", "--smoke", "--parallelism", "1",
             "--output", str(trace_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "anchor_skipped" in out and "ordering_digest" in out
        code = obs_main(["explain", str(trace_path), "--first-skip"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert "skipped on validator" in out
        assert "crashed" in out  # figure2 skips come from crashed leaders

