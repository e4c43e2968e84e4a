"""Integration tests with faults: crashes, recovery, degraded validators,
and Byzantine vote withholding.

These tests check the protocol-level claims of the paper at small scale:
HammerHead removes failing validators from the leader schedule (Leader
Utilization), reintegrates recovered ones, and keeps safety throughout.
"""

import pytest

from repro.behavior import VoteWithholdingPolicy
from repro.faults.behavior import BehaviorFault
from repro.faults.crash import CrashRecoveryFault
from repro.faults.slow import SlowValidatorFault
from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.sim.runner import SimulationRunner


def fault_config(**overrides):
    base = dict(
        protocol="hammerhead",
        committee_size=7,
        input_load_tps=150.0,
        duration=40.0,
        warmup=15.0,
        seed=4,
        commits_per_schedule=4,
        latency_model="uniform",
        leader_timeout=1.0,
        min_round_interval=0.10,
        record_sequences=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def run_runner(config):
    runner = SimulationRunner(config)
    return runner, runner.run()


class TestCrashFaults:
    def test_liveness_with_maximum_crash_faults(self):
        for protocol in ("hammerhead", "bullshark"):
            result = run_experiment(fault_config(protocol=protocol, faults=2))
            assert result.report.commits > 5, protocol
            assert result.report.throughput_tps > 80.0, protocol

    def test_safety_with_crash_faults(self):
        runner, result = run_runner(fault_config(faults=2))
        honest = [node for node in runner.nodes.values() if not node.crashed]
        sequences = [node.consensus.ordered_ids() for node in honest]
        shortest = min(len(sequence) for sequence in sequences)
        assert shortest > 20
        reference = sequences[0][:shortest]
        for sequence in sequences[1:]:
            assert sequence[:shortest] == reference

    def test_hammerhead_removes_crashed_validators_from_schedule(self):
        runner, result = run_runner(fault_config(faults=2))
        assert result.report.schedule_changes >= 1
        observer = runner.nodes[0]
        final_schedule = observer.schedule_manager.active_schedule
        for crashed in result.crashed_validators:
            assert final_schedule.slots_of(crashed) == 0

    def test_crashed_validators_have_lowest_reputation(self):
        runner, result = run_runner(fault_config(faults=2))
        observer = runner.nodes[0]
        records = observer.schedule_manager.change_records
        assert records
        last_scores = records[-1].scores
        crashed_scores = [last_scores[validator] for validator in result.crashed_validators]
        alive_scores = [
            score
            for validator, score in last_scores.items()
            if validator not in result.crashed_validators
        ]
        assert max(crashed_scores) <= min(alive_scores)

    def test_bullshark_keeps_electing_crashed_leaders(self):
        _, result = run_runner(fault_config(protocol="bullshark", faults=2))
        # The static schedule keeps the crashed validators' slots, so their
        # anchor rounds are skipped for the whole run.
        assert result.report.skipped_anchor_rounds > 0
        skipped_leaders = set(result.skipped_rounds_per_leader)
        assert skipped_leaders & set(result.crashed_validators)

    def test_hammerhead_outperforms_bullshark_under_faults(self):
        """Claim C2 at small scale: lower latency and no fewer commits."""
        hammerhead = run_experiment(fault_config(faults=2, seed=6))
        bullshark = run_experiment(fault_config(protocol="bullshark", faults=2, seed=6))
        assert hammerhead.report.avg_latency_s < bullshark.report.avg_latency_s
        assert hammerhead.report.commits > bullshark.report.commits
        assert hammerhead.report.throughput_tps >= 0.95 * bullshark.report.throughput_tps

    def test_hammerhead_latency_with_faults_close_to_faultless(self):
        """Claim C3 at small scale: only a slight latency degradation."""
        faultless = run_experiment(fault_config(faults=0, seed=7))
        faulty = run_experiment(fault_config(faults=2, seed=7))
        assert faulty.report.avg_latency_s <= faultless.report.avg_latency_s + 1.0
        assert faulty.report.throughput_tps >= 0.9 * faultless.report.throughput_tps

    def test_leader_timeouts_stop_after_schedule_adapts(self):
        runner, result = run_runner(fault_config(faults=2, duration=50.0, warmup=20.0))
        observer = runner.nodes[0]
        # After the last schedule change, the crashed validators hold no
        # slots, so no anchor round can time out any more; the total number
        # of timeouts is therefore bounded by the pre-adaptation phase.
        changes = observer.schedule_manager.change_records
        assert changes
        assert result.report.skipped_anchor_rounds <= 3 * len(changes) * 4


class TestLeaderUtilization:
    def test_skipped_rounds_bounded_by_schedule_adaptation(self):
        """Lemma 6 (qualitatively): in crash-only runs the number of anchor
        rounds without a commit is bounded, once normalized by the
        schedule-change period and the number of crashed validators."""
        result = run_experiment(fault_config(faults=2, duration=60.0, warmup=20.0))
        commits_per_schedule = 4
        faults = 2
        bound = 3 * commits_per_schedule * faults  # O(T) * f with slack
        assert result.report.skipped_anchor_rounds <= bound

    def test_bullshark_skips_keep_accumulating(self):
        hammerhead = run_experiment(fault_config(faults=2, duration=60.0, warmup=20.0))
        bullshark = run_experiment(
            fault_config(protocol="bullshark", faults=2, duration=60.0, warmup=20.0)
        )
        assert bullshark.report.skipped_anchor_rounds > hammerhead.report.skipped_anchor_rounds


class TestCrashRecovery:
    def test_recovered_validator_regains_leader_slots(self):
        """The introduction's scenario: a validator goes down for maintenance,
        loses its slots, and is reintegrated once it recovers."""
        plan = CrashRecoveryFault(validators=(5,), crash_at=2.0, recover_at=20.0)
        config = fault_config(
            faults=0,
            duration=70.0,
            warmup=10.0,
            extra_faults=(plan,),
            commits_per_schedule=3,
        )
        runner, result = run_runner(config)
        observer = runner.nodes[0]
        schedules = observer.schedule_manager.history
        # While validator 5 was down, some schedule dropped its slots.
        assert any(schedule.slots_of(5) == 0 for schedule in schedules)
        # After recovery it regains representation: per-epoch scores are
        # small, so occasional tie-break noise can still exclude it from a
        # single schedule, but it must hold slots in most recent schedules.
        recent = schedules[-5:]
        with_slots = sum(1 for schedule in recent if schedule.slots_of(5) >= 1)
        assert with_slots >= 3
        # And the recovered node is alive and made progress.
        assert not runner.nodes[5].crashed
        assert runner.nodes[5].commit_count > 0

    def test_safety_across_crash_and_recovery(self):
        plan = CrashRecoveryFault(validators=(6,), crash_at=3.0, recover_at=12.0)
        config = fault_config(faults=0, duration=40.0, extra_faults=(plan,))
        runner, _ = run_runner(config)
        reference = runner.nodes[0].consensus.ordered_ids()
        recovered = runner.nodes[6].consensus.ordered_ids()
        assert len(recovered) > 10
        # The recovered validator may have skipped an interval of history via
        # state sync, so its sequence is not necessarily a prefix of the
        # reference; it must however be a *subsequence*: it never orders two
        # vertices in the opposite relative order from the rest of the
        # committee, and never orders a vertex the committee did not.
        positions = {vertex_id: index for index, vertex_id in enumerate(reference)}
        assert all(vertex_id in positions for vertex_id in recovered)
        recovered_positions = [positions[vertex_id] for vertex_id in recovered]
        assert recovered_positions == sorted(recovered_positions)
        assert len(set(recovered_positions)) == len(recovered_positions)


class TestDegradedValidators:
    def test_slow_validators_raise_bullshark_tail_latency(self):
        """The Sui incident of the introduction: ~10% degraded validators
        push p95 latency up under the static schedule."""
        slow = SlowValidatorFault(validators=(6,), extra_delay=0.6, start=0.0)
        healthy = run_experiment(fault_config(protocol="bullshark", seed=9))
        degraded = run_experiment(
            fault_config(protocol="bullshark", seed=9, extra_faults=(slow,))
        )
        assert degraded.report.p95_latency_s > healthy.report.p95_latency_s

    def test_hammerhead_recovers_from_degraded_validators(self):
        slow = SlowValidatorFault(validators=(6,), extra_delay=0.6, start=0.0)
        bullshark = run_experiment(
            fault_config(protocol="bullshark", seed=9, duration=60.0, warmup=25.0, extra_faults=(slow,))
        )
        hammerhead = run_experiment(
            fault_config(protocol="hammerhead", seed=9, duration=60.0, warmup=25.0, extra_faults=(slow,))
        )
        assert hammerhead.report.p95_latency_s <= bullshark.report.p95_latency_s

    def test_degraded_validator_loses_slots_under_hammerhead(self):
        slow = SlowValidatorFault(validators=(6,), extra_delay=0.8, start=0.0)
        runner, result = run_runner(
            fault_config(duration=60.0, warmup=20.0, extra_faults=(slow,))
        )
        observer = runner.nodes[0]
        assert observer.schedule_manager.active_schedule.slots_of(6) == 0


class TestByzantineVoteWithholding:
    def test_withholding_validator_loses_reputation_and_slots(self):
        byzantine = BehaviorFault(validators=(5, 6), policy_factory=VoteWithholdingPolicy)
        runner, result = run_runner(
            fault_config(
                duration=50.0, warmup=15.0, commits_per_schedule=8, extra_faults=(byzantine,)
            )
        )
        observer = runner.nodes[0]
        records = observer.schedule_manager.change_records
        assert records
        # Averaged over all schedule epochs, vote withholding costs the
        # Byzantine validators reputation relative to every honest one.
        average_scores = {
            validator: sum(record.scores[validator] for record in records) / len(records)
            for validator in runner.committee.validators
        }
        withholding_average = max(average_scores[5], average_scores[6])
        honest_average = min(average_scores[validator] for validator in range(5))
        assert withholding_average < honest_average
        # And they hold no slots in the schedule in force at the end.
        assert observer.schedule_manager.active_schedule.slots_of(5) == 0
        assert observer.schedule_manager.active_schedule.slots_of(6) == 0

    def test_withholding_does_not_break_safety_or_liveness(self):
        byzantine = BehaviorFault(validators=(5,), policy_factory=VoteWithholdingPolicy)
        runner, result = run_runner(fault_config(extra_faults=(byzantine,)))
        assert result.report.commits > 10
        sequences = [node.consensus.ordered_ids() for node in runner.nodes.values()]
        shortest = min(len(sequence) for sequence in sequences)
        reference = sequences[0][:shortest]
        for sequence in sequences[1:]:
            assert sequence[:shortest] == reference
