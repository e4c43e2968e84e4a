"""The lockstep plan and the lockstep-on-simulator oracle.

Lockstep is what makes the socket backend cross-validatable: the
committed order becomes a pure function of a :class:`LockstepPlan`
derived from the experiment config alone.  These tests pin

* plan derivation (crash rounds from fault counts/times, observer
  protection, quorum guard, crash-only fault support, round budget),
* the oracle's behavior: every alive validator reaches the final round,
  all alive validators agree on the committed order, runs are
  deterministic across repetitions, and crashed validators stop clean,
* quiescence checking (a stuck node is a loud error, not a silent
  short run).
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.faults.crash import CrashFault
from repro.faults.partition import PartitionPlan
from repro.netexec.lockstep import (
    MAX_LOCKSTEP_ROUNDS,
    LockstepPlan,
    check_lockstep_quiescence,
    plan_for_config,
    run_lockstep_experiment,
)
from repro.sim.experiment import ExperimentConfig
from repro.types import VertexId


def config(committee_size=4, **overrides):
    base = dict(
        protocol="hammerhead",
        committee_size=committee_size,
        input_load_tps=200.0,
        duration=10.0,
        warmup=1.0,
        seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestPlanDerivation:
    def test_faultless_plan_crashes_nobody(self):
        plan = plan_for_config(config())
        assert plan.validators == (0, 1, 2, 3)
        assert plan.crash_rounds == ()
        assert plan.expected(3) == (0, 1, 2, 3)

    def test_max_round_is_even_and_duration_bounded(self):
        assert plan_for_config(config(duration=10.0)).max_round == 10
        assert plan_for_config(config(duration=11.0)).max_round == 10
        assert plan_for_config(config(duration=3.0)).max_round == 4  # floor
        assert (
            plan_for_config(config(committee_size=10, duration=100000.0)).max_round
            == MAX_LOCKSTEP_ROUNDS
        )

    def test_builtin_faults_crash_the_tail_never_the_observer(self):
        plan = plan_for_config(config(committee_size=7, faults=2, fault_time=0.0))
        assert [validator for validator, _ in plan.crash_rounds] == [5, 6]
        # Crash at t=0 means the validator never proposes: crash round 1.
        assert plan.crash_round_of(6) == 1
        assert plan.expected(1) == (0, 1, 2, 3, 4)

    def test_fault_time_maps_to_a_later_crash_round(self):
        plan = plan_for_config(config(committee_size=7, faults=1, fault_time=3.5))
        ((victim, _),) = plan.crash_rounds
        assert plan.crash_round_of(victim) == 4
        # The victim participates strictly below its crash round.
        assert victim in plan.expected(3)
        assert victim not in plan.expected(4)

    def test_extra_crash_faults_merge_to_the_earliest_round(self):
        plan = plan_for_config(
            config(
                committee_size=7,
                extra_faults=(
                    CrashFault(validators=(5,), at_time=6.0),
                    CrashFault(validators=(5, 6), at_time=2.0),
                ),
            )
        )
        assert plan.crash_round_of(5) == 3
        assert plan.crash_round_of(6) == 3

    def test_non_crash_faults_are_rejected(self):
        bad = config(
            committee_size=7,
            extra_faults=(PartitionPlan(groups=((0, 1, 2, 3), (4, 5, 6)), start=1.0, end=3.0),),
        )
        with pytest.raises(ReproError, match="crash faults only"):
            plan_for_config(bad)

    def test_crashed_observer_is_rejected(self):
        bad = config(extra_faults=(CrashFault(validators=(0,), at_time=0.0),))
        with pytest.raises(ReproError, match="live observer"):
            plan_for_config(bad)

    def test_quorumless_crash_plan_is_rejected(self):
        bad = config(
            committee_size=4,
            extra_faults=(CrashFault(validators=(1, 2, 3), at_time=0.0),),
        )
        with pytest.raises(ReproError, match="below a stake quorum"):
            plan_for_config(bad)

    def test_the_expected_mask_drops_a_validator_from_its_crash_round_on(self):
        plan = LockstepPlan(validators=(0, 1, 2, 3, 4), max_round=20, crash_rounds=((1, 9), (3, 4)))
        for round_number in range(plan.max_round + 1):
            assert plan.expected_mask(round_number) == sum(1 << v for v in plan.expected(round_number))
        assert [plan.expected_mask(r) for r in (0, 3, 4, 8, 9, 400)] == [
            0b11111, 0b11111, 0b10111, 0b10111, 0b10101, 0b10101,
        ]
        assert plan_for_config(config()).expected_mask(7) == 0b1111

    def test_block_size_is_a_pure_slot_function(self):
        plan = plan_for_config(config())
        assert plan.block_size(3, 2) == plan.block_size(3, 2)
        assert 0 <= plan.block_size(7, 1) < 5


class TestLockstepOracle:
    def test_alive_validators_agree_and_finish(self):
        result = run_lockstep_experiment(config(duration=8.0))
        digests = set(result.ordering_digests.values())
        assert len(digests) == 1  # every validator committed the same order
        count, digest = result.ordering_digests[0]
        assert count > 0
        assert len(digest) == 64
        assert result.crashed_validators == []

    def test_repeated_runs_are_byte_identical(self):
        first = run_lockstep_experiment(config(duration=8.0, seed=3))
        second = run_lockstep_experiment(config(duration=8.0, seed=3))
        assert first.ordering_digests == second.ordering_digests
        assert first.schedule_histories == second.schedule_histories

    def test_crashed_validator_stops_with_an_empty_digest(self):
        result = run_lockstep_experiment(
            config(committee_size=7, faults=1, fault_time=0.0, duration=8.0)
        )
        assert result.crashed_validators == [6]
        count, digest = result.ordering_digests[6]
        assert count == 0
        # sha256 of nothing: the validator never ordered a vertex.
        assert digest == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        alive = {
            validator: value
            for validator, value in result.ordering_digests.items()
            if validator != 6
        }
        assert len(set(alive.values())) == 1

    def test_seed_changes_the_committed_order(self):
        one = run_lockstep_experiment(config(duration=8.0, seed=1))
        two = run_lockstep_experiment(config(duration=8.0, seed=2))
        assert one.ordering_digests[0] != two.ordering_digests[0]

    def test_bullshark_protocol_also_runs_lockstep(self):
        result = run_lockstep_experiment(config(protocol="bullshark", duration=8.0))
        assert len(set(result.ordering_digests.values())) == 1
        # The static schedule never rotates.
        assert all(epochs == 1 for epochs in result.schedule_epochs.values())


class TestQuiescence:
    def test_stuck_validator_is_a_loud_error(self):
        class StuckNode:
            crashed = False
            current_round = 3

            def _stalled_on(self, round_number):
                return [VertexId(3, 2)] if round_number == 3 else []

        plan = LockstepPlan(validators=(0, 1), max_round=6, crash_rounds=())
        with pytest.raises(ReproError, match=r"stopped at round 3/6 \(waiting on sources \[2\]\)"):
            check_lockstep_quiescence(plan, {0: StuckNode(), 1: StuckNode()})

    def test_crashed_validators_are_exempt(self):
        class CrashedNode:
            crashed = True
            current_round = 0

        plan = LockstepPlan(validators=(0,), max_round=6, crash_rounds=((0, 1),))
        check_lockstep_quiescence(plan, {0: CrashedNode()})


class TestSharedLowering:
    def test_every_runner_lowers_the_same_node_config(self):
        """One lowering: the lockstep and socket runners differ from the
        sim runner's node config only by the plan's final round."""
        import dataclasses

        from repro.netexec.lockstep import LockstepSimulationRunner
        from repro.sim.runner import build_node_config

        experiment = config(
            min_round_interval=0.25, scoring="completeness", max_batch_size=7
        )
        lowered = build_node_config(experiment)
        assert lowered.min_round_interval == 0.25
        assert lowered.max_batch_size == 7
        plan = plan_for_config(experiment)
        runner = LockstepSimulationRunner(experiment)
        assert runner.node_config == dataclasses.replace(lowered, max_round=plan.max_round)
        assert {node.schedule_manager.scoring.name for node in runner.nodes.values()} == {"completeness"}
