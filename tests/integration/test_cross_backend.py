"""Cross-backend equivalence: lockstep-on-sim oracle vs real sockets.

The core claim of the net backend — the reason it can be trusted at all
— is that for the same spec + seed, the committed ordering digests over
real asyncio sockets are **byte-identical** to the discrete-event
oracle's.  CI enforces this at registry-scenario scale
(``cross-backend-smoke``); these tests enforce it at tiny scale on
every ``pytest`` run, for both a faultless and a crash-faulted
committee, plus the scenario-runner plumbing (``--backend`` selection
and artifact tagging).
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.netexec.lockstep import run_lockstep_experiment
from repro.netexec.runner import run_net_experiment
from repro.scenarios.diff import diff_artifacts
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.sim.experiment import ExperimentConfig


def config(**overrides):
    base = dict(
        protocol="hammerhead",
        committee_size=4,
        input_load_tps=200.0,
        duration=8.0,
        warmup=1.0,
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="cross-backend-tiny",
        description="cross-backend equivalence at test scale",
        committee_sizes=(4,),
        loads=(200.0,),
        seed=1,
        protocols=("hammerhead",),
        duration=8.0,
        warmup=1.0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestDigestEquivalence:
    def test_faultless_digests_match_across_backends(self):
        oracle = run_lockstep_experiment(config())
        net = run_net_experiment(config())
        assert net.ordering_digests == oracle.ordering_digests
        assert net.crashed_validators == oracle.crashed_validators
        assert net.schedule_histories == oracle.schedule_histories

    def test_faulty_digests_match_across_backends(self):
        faulty = dict(committee_size=7, faults=1, fault_time=0.0, seed=2)
        oracle = run_lockstep_experiment(config(**faulty))
        net = run_net_experiment(config(**faulty))
        assert net.ordering_digests == oracle.ordering_digests
        assert net.crashed_validators == oracle.crashed_validators == [6]

    def test_net_backend_is_repeatable(self):
        first = run_net_experiment(config(seed=3))
        second = run_net_experiment(config(seed=3))
        assert first.ordering_digests == second.ordering_digests


class TestSharedResultAssembly:
    """The socket run reports through the oracle's result assembly."""

    def test_bounded_trace_is_marked_like_the_oracle(self):
        bounded = config(trace=True, trace_limit=50)
        oracle = run_lockstep_experiment(bounded)
        net = run_net_experiment(bounded)
        for result in (oracle, net):
            markers = [event for event in result.trace if event["kind"] == "trace_truncated"]
            assert len(markers) == 1
            (marker,) = markers
            assert marker["kept"] == 50
            assert marker["dropped"] == result.counters["always"]["trace.events_dropped"]
        assert len(net.trace) == len(oracle.trace)
        assert (
            net.counters["always"]["trace.events_dropped"]
            == oracle.counters["always"]["trace.events_dropped"]
            > 0
        )

    def test_socket_counters_are_the_oracles_plus_the_socket_engine_pair(self):
        from repro.netexec.runner import SOCKET_COUNTERS

        oracle = run_lockstep_experiment(config())
        net = run_net_experiment(config())
        oracle_keys = set(oracle.counters["always"])
        assert oracle_keys.isdisjoint(SOCKET_COUNTERS)
        assert set(net.counters["always"]) == oracle_keys | set(SOCKET_COUNTERS)
        assert net.ordering_digests == oracle.ordering_digests
        # The plan fixes every proposal, whatever the engine.
        assert (
            net.counters["always"]["node.proposals_made"]
            == oracle.counters["always"]["node.proposals_made"]
        )


class TestScenarioPlumbing:
    def test_scenario_artifacts_diff_clean_across_backends(self):
        spec = _tiny_spec()
        oracle = run_scenario(spec, backend="lockstep")
        net = run_scenario(spec, backend="net")
        assert oracle["backend"] == "lockstep"
        assert net["backend"] == "net"
        exit_code, report = diff_artifacts(oracle, net)
        assert exit_code == 0, "\n".join(report)

    def test_sim_backend_artifacts_are_untagged_only_by_value(self):
        # The default backend still runs the free-running simulation and
        # records itself in the artifact, so provenance is auditable.
        artifact = run_scenario(_tiny_spec(duration=6.0), backend="sim")
        assert artifact["backend"] == "sim"

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            run_scenario(_tiny_spec(), backend="telnet")
