"""Unit tests for the scenario engine (spec, registry, compile, runner)."""

import dataclasses
import json

import pytest

from repro.errors import ConfigurationError
from repro.behavior import VoteWithholdingPolicy
from repro.faults.behavior import BehaviorFault
from repro.faults.crash import CrashFault, CrashRecoveryFault
from repro.faults.partition import NetworkDisturbanceFault, PartitionPlan
from repro.faults.slow import SlowValidatorFault
from repro.scenarios import (
    DisturbanceSpec,
    FaultSpec,
    PartitionSpec,
    ScenarioSpec,
    WorkloadSpec,
    all_scenarios,
    compile_spec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.scenarios.spec import SPEC_VERSION


def rich_spec() -> ScenarioSpec:
    """A spec exercising every nested section."""
    return ScenarioSpec(
        name="rich",
        description="everything at once",
        protocols=("hammerhead", "bullshark"),
        committee_sizes=(7,),
        workload=WorkloadSpec(
            kind="burst", tps=300.0, burst_tps=900.0, burst_start=4.0, burst_end=8.0
        ),
        duration=20.0,
        warmup=5.0,
        seed=11,
        faults=(
            FaultSpec(kind="crash", count=1, at=2.0),
            FaultSpec(kind="crash-recovery", validators=(5,), at=3.0, recover_at=9.0),
            FaultSpec(kind="slow", fraction=0.2, extra_delay=0.3, at=1.0, end=12.0),
            FaultSpec(kind="vote-withholding", validators=(4,), at=0.0),
        ),
        partitions=(PartitionSpec(isolate_fraction=0.3, start=10.0, end=14.0),),
        disturbances=(DisturbanceSpec(jitter=0.1, loss_rate=0.01, start=6.0, end=11.0),),
    )


class TestSpecRoundTrip:
    def test_dict_round_trip_is_identity(self):
        spec = rich_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_identity(self):
        spec = rich_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_round_trip_preserves_digest(self):
        spec = rich_spec()
        assert ScenarioSpec.from_json(spec.to_json()).scenario_digest() == spec.scenario_digest()

    @pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
    @pytest.mark.parametrize("name", scenario_names())
    def test_registered_scenario_json_round_trip(self, name, smoke):
        # The annotations-driven parser rebuilds every curated spec exactly:
        # same values, same types (no int/float drift), same digest.
        spec = get_scenario(name).smoke() if smoke else get_scenario(name)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.scenario_digest() == spec.scenario_digest()

    def test_to_dict_is_plain_json(self):
        # No tuples, dataclasses, or other non-JSON types survive.
        text = json.dumps(rich_spec().to_dict())
        assert json.loads(text) == rich_spec().to_dict()

    def test_version_is_embedded_and_checked(self):
        data = rich_spec().to_dict()
        assert data["version"] == SPEC_VERSION
        data["version"] = SPEC_VERSION + 1
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_unknown_keys_rejected(self):
        data = rich_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_unknown_nested_keys_rejected(self):
        data = rich_spec().to_dict()
        data["faults"][0]["surprise"] = 1
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_wrong_types_rejected(self):
        data = rich_spec().to_dict()
        data["duration"] = "long"
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json("{not json")


class TestSpecValidation:
    def test_fault_needs_exactly_one_selector(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash", count=1, fraction=0.5).validate()
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash").validate()

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="meltdown", count=1).validate()

    def test_crash_recovery_needs_future_recovery(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="crash-recovery", count=1, at=5.0, recover_at=5.0).validate()

    def test_partition_needs_one_shape(self):
        with pytest.raises(ConfigurationError):
            PartitionSpec().validate()
        with pytest.raises(ConfigurationError):
            PartitionSpec(groups=((1, 2),), isolate_fraction=0.5).validate()

    def test_disturbance_needs_some_disturbance(self):
        with pytest.raises(ConfigurationError):
            DisturbanceSpec().validate()

    def test_at_most_one_tail_crash(self):
        spec = ScenarioSpec(
            name="bad",
            faults=(
                FaultSpec(kind="crash", count=1),
                FaultSpec(kind="crash", max_faulty=True),
            ),
        )
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_warmup_within_duration(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="bad", duration=10.0, warmup=10.0).validate()


class TestDigest:
    def test_digest_is_deterministic(self):
        assert rich_spec().scenario_digest() == rich_spec().scenario_digest()

    def test_digest_ignores_construction_order(self):
        data = rich_spec().to_dict()
        shuffled = dict(reversed(list(data.items())))
        assert (
            ScenarioSpec.from_dict(shuffled).scenario_digest()
            == rich_spec().scenario_digest()
        )

    def test_digest_distinguishes_specs(self):
        digests = {spec.scenario_digest() for spec in all_scenarios().values()}
        digests.add(rich_spec().scenario_digest())
        assert len(digests) == len(all_scenarios()) + 1

    def test_digest_changes_with_any_field(self):
        spec = rich_spec()
        assert spec.with_overrides(seed=12).scenario_digest() != spec.scenario_digest()


class TestRegistry:
    def test_registry_has_the_curated_catalogue(self):
        expected = {
            "faultless",
            "figure2-faults",
            "sui-incident",
            "rolling-crash-churn",
            "targeted-leader-attack",
            "asymmetric-partition",
            "load-spike",
            "mixed-adversary",
        }
        assert expected <= set(scenario_names())
        assert len(scenario_names()) >= 8

    def test_every_scenario_validates_and_compiles(self):
        for name, spec in all_scenarios().items():
            spec.validate()
            points = compile_spec(spec)
            assert points, f"scenario {name} compiled to no points"
            for point in points:
                point.config.validate()

    def test_every_scenario_has_a_valid_smoke_variant(self):
        for name, spec in all_scenarios().items():
            smoke = spec.smoke()
            assert smoke.duration <= 15.0
            assert smoke.committee_sizes == (4,)
            points = compile_spec(smoke)
            assert points, f"smoke variant of {name} compiled to no points"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no-such-scenario")


class TestCompile:
    def test_tail_crash_compiles_to_builtin_faults(self):
        spec = ScenarioSpec(
            name="crash",
            committee_sizes=(10,),
            loads=(500.0,),
            faults=(FaultSpec(kind="crash", max_faulty=True, at=1.5),),
        )
        (point,) = compile_spec(spec)
        assert point.config.faults == 3
        assert point.config.fault_time == 1.5
        assert point.config.extra_faults == ()

    def test_explicit_faults_compile_to_plans(self):
        spec = rich_spec()
        points = compile_spec(spec)
        plans = points[0].config.extra_faults
        kinds = [type(plan) for plan in plans]
        assert CrashRecoveryFault in kinds
        assert SlowValidatorFault in kinds
        (withholding,) = [plan for plan in plans if isinstance(plan, BehaviorFault)]
        assert withholding.policy_factory is VoteWithholdingPolicy
        assert tuple(withholding.validators) == (4,)
        assert PartitionPlan in kinds
        assert NetworkDisturbanceFault in kinds
        # The count-selected crash went through the builtin path.
        assert CrashFault not in kinds
        assert points[0].config.faults == 1

    def test_vote_withholding_is_a_behavior_window(self):
        withholding = FaultSpec(kind="vote-withholding", validators=(2,), at=1.0, end=5.0)
        spec = ScenarioSpec(name="window", committee_sizes=(4,), loads=(100.0,), faults=(withholding,))
        (point,) = compile_spec(spec)
        (plan,) = point.config.extra_faults
        assert (plan.policy_factory, tuple(plan.validators), plan.start, plan.end) == (
            VoteWithholdingPolicy, (2,), 1.0, 5.0
        )
        # It shares the behavior kinds' window rule: no overlap on a validator.
        lazy = FaultSpec(kind="lazy-leader", validators=(2,), at=3.0)
        with pytest.raises(ConfigurationError, match="overlap"):
            dataclasses.replace(spec, faults=(withholding, lazy)).validate()

    def test_vote_withholders_receive_client_load(self):
        """Withholders are live validators: clients submit to them as to
        any other (the time-stamped plan this kind compiled to before
        was mistaken for a crash at t=0 and starved them of load)."""
        from repro.sim.runner import SimulationRunner

        (point, *_) = compile_spec(get_scenario("targeted-leader-attack").smoke())
        runner = SimulationRunner(point.config)
        runner.run()
        (withholders,) = [plan.validators for plan in runner.fault_injector.plans]
        assert withholders
        assert all(runner.nodes[validator].transactions_submitted > 0 for validator in withholders)

    def test_point_order_is_committee_protocol_load(self):
        spec = ScenarioSpec(
            name="order",
            protocols=("hammerhead", "bullshark"),
            committee_sizes=(4, 7),
            loads=(100.0, 200.0),
        )
        labels = [
            (point.committee_size, point.protocol, point.load)
            for point in compile_spec(spec)
        ]
        assert labels == [
            (4, "hammerhead", 100.0),
            (4, "hammerhead", 200.0),
            (4, "bullshark", 100.0),
            (4, "bullshark", 200.0),
            (7, "hammerhead", 100.0),
            (7, "hammerhead", 200.0),
            (7, "bullshark", 100.0),
            (7, "bullshark", 200.0),
        ]

    def test_seed_override(self):
        spec = ScenarioSpec(name="seeded", committee_sizes=(4,), loads=(100.0,), seed=5)
        (point,) = compile_spec(spec, seed=9)
        assert point.config.seed == 9

    def test_burst_workload_compiles_to_phases(self):
        spec = ScenarioSpec(
            name="bursty",
            committee_sizes=(4,),
            workload=WorkloadSpec(
                kind="burst", tps=100.0, burst_tps=400.0, burst_start=5.0, burst_end=10.0
            ),
            duration=20.0,
            warmup=2.0,
        )
        (point,) = compile_spec(spec)
        phases = point.config.load_phases
        assert len(phases) == 3
        assert phases[1] == (5.0, 10.0, 400.0)
        # The nominal load is the time-weighted average.
        assert point.config.input_load_tps == pytest.approx(
            (100.0 * 4.5 + 400.0 * 5.0 + 100.0 * 10.0) / 19.5, abs=1e-3
        )

    def test_without_faults_strips_all_timelines(self):
        healthy = rich_spec().without_faults()
        assert healthy.faults == ()
        assert healthy.partitions == ()
        assert healthy.disturbances == ()
        (first, *_) = compile_spec(healthy)
        assert first.config.faults == 0
        assert first.config.extra_faults == ()


class TestRunScenario:
    def test_artifact_carries_reproducibility_fields(self):
        spec = ScenarioSpec(
            name="tiny",
            protocols=("hammerhead",),
            committee_sizes=(4,),
            loads=(150.0,),
            duration=8.0,
            warmup=2.0,
            seed=3,
        )
        artifact = run_scenario(spec, parallelism=1)
        assert artifact["scenario"] == spec.to_dict()
        assert artifact["scenario_digest"] == spec.scenario_digest()
        assert artifact["seeds"] == [3]
        (point,) = artifact["points"]
        assert point["ordering_digest"]
        assert point["report"]["committed_transactions"] > 0
        # The artifact is valid JSON end to end.
        json.dumps(artifact)

    def test_multi_seed_sweep_fans_out(self):
        spec = ScenarioSpec(
            name="tiny-sweep",
            protocols=("hammerhead",),
            committee_sizes=(4,),
            loads=(100.0,),
            duration=6.0,
            warmup=1.0,
        )
        artifact = run_scenario(spec, seeds=(1, 2), parallelism=1)
        assert artifact["seeds"] == [1, 2]
        assert [point["seed"] for point in artifact["points"]] == [1, 2]
        # Different seeds, different runs.
        digests = {point["ordering_digest"] for point in artifact["points"]}
        assert len(digests) == 2


class TestReviewRegressions:
    """Regression tests for defects found in the PR-2 code review."""

    def test_smoke_handles_multiple_explicit_crashes(self):
        spec = ScenarioSpec(
            name="double-crash",
            committee_sizes=(10,),
            loads=(500.0,),
            duration=60.0,
            warmup=10.0,
            faults=(
                FaultSpec(kind="crash", validators=(9,), at=10.0),
                FaultSpec(kind="crash", validators=(8,), at=30.0),
                FaultSpec(kind="crash-recovery", validators=(7,), at=20.0, recover_at=40.0),
            ),
        ).validate()
        smoke = spec.smoke()
        # Only one permanent crash survives on a 4-member committee.
        permanent = [fault for fault in smoke.faults if fault.kind == "crash"]
        assert len(permanent) == 1
        compile_spec(smoke)  # must not raise

    def test_smoke_remaps_explicit_validators_distinctly(self):
        spec = ScenarioSpec(
            name="churn-like",
            committee_sizes=(10,),
            loads=(500.0,),
            duration=60.0,
            warmup=10.0,
            faults=(
                FaultSpec(kind="crash-recovery", validators=(9,), at=10.0, recover_at=30.0),
                FaultSpec(kind="crash-recovery", validators=(8,), at=20.0, recover_at=40.0),
                FaultSpec(kind="crash-recovery", validators=(7,), at=30.0, recover_at=50.0),
            ),
        ).validate()
        smoke = spec.smoke()
        chosen = [fault.validators for fault in smoke.faults]
        assert all(len(validators) == 1 for validators in chosen)
        assert len(set(chosen)) == 3, "waves must hit distinct validators"
        assert all(0 not in validators for validators in chosen)

    def test_burst_window_outside_duration_rejected_at_validate(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="late-burst",
                committee_sizes=(4,),
                duration=40.0,
                workload=WorkloadSpec(
                    kind="burst", tps=100.0, burst_tps=400.0, burst_start=50.0, burst_end=60.0
                ),
            ).validate()

    def test_overlapping_partition_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="double-partition",
                committee_sizes=(8,),
                loads=(100.0,),
                partitions=(
                    PartitionSpec(isolate_fraction=0.25, start=5.0, end=15.0),
                    PartitionSpec(isolate_fraction=0.25, start=10.0, end=20.0),
                ),
            ).validate()

    def test_overlapping_disturbance_windows_compose(self):
        from repro.faults.partition import NetworkDisturbanceFault
        from tests.doubles import UniformLatencyModel
        from repro.network.simulator import Simulator
        from repro.network.transport import Network

        simulator = Simulator(seed=1)
        network = Network(simulator, latency_model=UniformLatencyModel(0.01, jitter=0.0))
        first = NetworkDisturbanceFault(jitter=0.2, start=10.0, end=50.0)
        second = NetworkDisturbanceFault(loss_rate=0.1, start=20.0, end=30.0)
        first.schedule(simulator, network, {})
        second.schedule(simulator, network, {})
        simulator.run(until=25.0)
        assert network._jitter == pytest.approx(0.2)
        assert network._loss_rate == pytest.approx(0.1)
        # The second window closing must not end the first one early.
        simulator.run(until=35.0)
        assert network._jitter == pytest.approx(0.2)
        assert network._loss_rate == 0.0
        simulator.run(until=55.0)
        assert network._jitter == 0.0
