"""Unit tests for fault plans, node configuration, and experiment presets."""

import pytest

from repro.committee import Committee
from repro.errors import ConfigurationError
from repro.faults.base import FaultInjector
from repro.behavior import VoteWithholdingPolicy
from repro.faults.behavior import BehaviorFault
from repro.faults.crash import CrashFault, CrashRecoveryFault, crash_last_f
from repro.faults.slow import SlowValidatorFault, degrade_fraction
from repro.node.config import NodeConfig
from repro.sim.experiment import ExperimentConfig
from repro.sim.presets import (
    MAINNET_COMMITS_PER_SCHEDULE,
    PAPER_COMMITS_PER_SCHEDULE,
    execution_capacity_for,
    node_config_for,
)


class TestCrashFaultPlans:
    def test_crash_last_f_defaults_to_max_faulty(self, committee10):
        plan = crash_last_f(committee10)
        assert len(plan.validators) == 3
        assert set(plan.validators) == {9, 8, 7}

    def test_crash_last_f_protects_observer(self, committee10):
        plan = crash_last_f(committee10, faults=3, protect=(9, 8))
        assert 9 not in plan.validators
        assert 8 not in plan.validators
        assert len(plan.validators) == 3

    def test_crash_last_f_rejects_too_many(self, committee10):
        with pytest.raises(ValueError):
            crash_last_f(committee10, faults=4)

    def test_paper_fault_counts_match_max_faulty(self):
        for size, faults in {10: 3, 50: 16, 100: 33}.items():
            assert Committee.build(size).max_faulty == faults

    def test_crash_recovery_requires_later_recovery(self):
        with pytest.raises(ValueError):
            CrashRecoveryFault(validators=(1,), crash_at=5.0, recover_at=5.0)

    def test_fault_descriptions(self):
        assert "crash" in CrashFault(validators=(1, 2), at_time=3.0).describe()
        assert "recover" in CrashRecoveryFault(validators=(1,), crash_at=1.0, recover_at=2.0).describe()
        assert "slow" in SlowValidatorFault(validators=(1,), extra_delay=0.2).describe()
        assert "withholding" in BehaviorFault(validators=(2,), policy_factory=VoteWithholdingPolicy).describe()


class TestSlowFaultPlans:
    def test_degrade_fraction_selects_expected_count(self, committee10):
        plan = degrade_fraction(committee10, fraction=0.10)
        assert len(plan.validators) == 1
        plan = degrade_fraction(committee10, fraction=0.30)
        assert len(plan.validators) == 3

    def test_degrade_fraction_protects_observer(self, committee10):
        plan = degrade_fraction(committee10, fraction=0.2, protect=(9,))
        assert 9 not in plan.validators


class TestFaultInjector:
    def test_affected_validators_deduplicated(self, committee10):
        injector = FaultInjector(
            [CrashFault(validators=(1, 2)), SlowValidatorFault(validators=(2, 3))]
        )
        assert injector.affected_validators() == [1, 2, 3]

    def test_empty_injector(self):
        assert FaultInjector().affected_validators() == []


class TestNodeConfig:
    def test_defaults_validate(self):
        assert NodeConfig().validate() is not None

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(max_batch_size=-1).validate()
        with pytest.raises(ConfigurationError):
            NodeConfig(leader_timeout=-1.0).validate()
        with pytest.raises(ConfigurationError):
            NodeConfig(max_round=0).validate()
        with pytest.raises(ConfigurationError):
            NodeConfig(fetch_retry_interval=0.0).validate()

    def test_scaled_for_committee_increases_round_interval(self):
        base = NodeConfig()
        scaled = base.scaled_for_committee(100)
        assert scaled.min_round_interval > base.min_round_interval
        assert scaled.max_batch_size == base.max_batch_size

    def test_scaled_for_committee_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            NodeConfig().scaled_for_committee(0)


class TestPresets:
    def test_schedule_parameters_match_paper_and_mainnet(self):
        assert PAPER_COMMITS_PER_SCHEDULE == 10
        assert MAINNET_COMMITS_PER_SCHEDULE == 300

    def test_execution_capacity_decreases_with_committee_size(self):
        assert execution_capacity_for(10) > execution_capacity_for(100)
        assert execution_capacity_for(1000) >= 1500.0

    def test_node_config_for_larger_committee_has_slower_rounds_smaller_batches(self):
        small = node_config_for(10)
        large = node_config_for(100)
        assert large.min_round_interval > small.min_round_interval
        assert large.max_batch_size < small.max_batch_size

    def test_node_config_batch_can_carry_capacity_with_f_crashed(self):
        # 2f+1 alive validators must be able to include the execution
        # capacity: this is what makes claim C3 possible.
        for size in (10, 50, 100):
            config = node_config_for(size)
            alive = size - (size - 1) // 3
            wave = 2.0 * (config.min_round_interval + 0.15)
            inclusion = alive * config.max_batch_size / wave
            assert inclusion >= execution_capacity_for(size)


class TestExperimentConfig:
    def test_defaults_validate(self):
        assert ExperimentConfig().validate() is not None

    def test_invalid_protocol_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(protocol="pbft").validate()

    def test_fault_count_bounded_by_committee(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(committee_size=10, faults=4).validate()
        assert ExperimentConfig(committee_size=10, faults=3).validate()

    def test_warmup_must_fit_duration(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(duration=10.0, warmup=10.0).validate()

    def test_observer_must_be_member(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(committee_size=4, observer=4).validate()

    def test_unknown_scoring_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(scoring="random").validate()

    def test_unknown_stake_distribution_rejected(self):
        with pytest.raises(ConfigurationError, match="'zipf'"):
            ExperimentConfig(stake="zipf").validate()

    @pytest.mark.parametrize(
        "stake, expected",
        [("equal", (1, 1, 1, 1)), ("geometric", (1000, 900, 810, 729))],
    )
    def test_the_runner_builds_the_named_stake(self, stake, expected):
        from repro.sim.runner import build_committee

        committee = build_committee(ExperimentConfig(committee_size=4, stake=stake))
        assert tuple(committee.stake_of(validator) for validator in range(4)) == expected

    def test_the_runner_refuses_an_unknown_stake(self):
        from repro.sim.runner import build_committee

        with pytest.raises(ConfigurationError, match="'zipf'"):
            build_committee(ExperimentConfig(committee_size=4, stake="zipf"))

    def test_seed_range_enforced(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(seed=5000).validate()

    def test_with_overrides_creates_modified_copy(self):
        base = ExperimentConfig(committee_size=10)
        changed = base.with_overrides(protocol="bullshark", input_load_tps=2000.0)
        assert changed.protocol == "bullshark"
        assert changed.input_load_tps == 2000.0
        assert base.protocol == "hammerhead"

    def test_profile_is_not_a_config_field(self):
        # Where the host's time goes is the benchmark's --traced table.
        with pytest.raises(TypeError):
            ExperimentConfig(profile=True)

    def test_with_overrides_refuses_profile(self):
        with pytest.raises(TypeError):
            ExperimentConfig().with_overrides(profile=True)

    def test_a_result_carries_no_profile(self):
        import dataclasses

        from repro.sim.experiment import ExperimentResult

        names = {field.name for field in dataclasses.fields(ExperimentResult)}
        assert "trace" in names
        assert "profile" not in names

    def test_label_mentions_faults_and_load(self):
        label = ExperimentConfig(committee_size=10, faults=3, input_load_tps=500).label()
        assert "3 faulty" in label
        assert "500" in label


class TestPartitionFaultPlans:
    def test_partition_plan_windows_the_partition(self, committee10):
        from repro.faults.partition import PartitionPlan
        from tests.doubles import UniformLatencyModel
        from repro.network.simulator import Simulator
        from repro.network.transport import Network

        simulator = Simulator(seed=1)
        network = Network(simulator, latency_model=UniformLatencyModel(0.01, jitter=0.0))
        for validator in committee10.validators:
            network.register(validator, committee10.region_of(validator), lambda s, m: None)
        plan = PartitionPlan(groups=((7, 8, 9),), start=1.0, end=2.0)
        plan.schedule(simulator, network, {})
        assert network._partition_groups is None
        simulator.run(until=1.5)
        assert network._partition_groups is not None
        simulator.run(until=2.5)
        assert network._partition_groups is None

    def test_partition_plan_rejects_overlap_and_bad_window(self):
        from repro.faults.partition import PartitionPlan

        with pytest.raises(ValueError):
            PartitionPlan(groups=((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            PartitionPlan(groups=((1,),), start=5.0, end=5.0)

    def test_isolate_tail_fraction_protects_observer(self, committee10):
        from repro.faults.partition import isolate_tail_fraction

        plan = isolate_tail_fraction(committee10, fraction=0.3, start=1.0, end=2.0)
        (minority,) = plan.groups
        assert 0 not in minority
        assert len(minority) == 3
        assert "partition" in plan.describe()

    def test_disturbance_windows_jitter_and_loss(self, committee10):
        from repro.faults.partition import NetworkDisturbanceFault
        from tests.doubles import UniformLatencyModel
        from repro.network.simulator import Simulator
        from repro.network.transport import Network

        simulator = Simulator(seed=1)
        network = Network(simulator, latency_model=UniformLatencyModel(0.01, jitter=0.0))
        plan = NetworkDisturbanceFault(jitter=0.2, loss_rate=0.1, start=1.0, end=2.0)
        plan.schedule(simulator, network, {})
        simulator.run(until=1.5)
        assert network._jitter == pytest.approx(0.2)
        assert network._loss_rate == pytest.approx(0.1)
        simulator.run(until=2.5)
        assert network._jitter == 0.0
        assert network._loss_rate == 0.0

    def test_disturbance_validates_parameters(self):
        from repro.faults.partition import NetworkDisturbanceFault

        with pytest.raises(ValueError):
            NetworkDisturbanceFault(loss_rate=1.0)
        with pytest.raises(ValueError):
            NetworkDisturbanceFault(jitter=-0.1)
        with pytest.raises(ValueError):
            NetworkDisturbanceFault(jitter=0.1, start=3.0, end=3.0)
