"""End-to-end integration tests: full simulated deployments.

These tests run complete experiments through the public API and check the
paper's protocol-level properties: liveness, total order across
validators, schedule agreement, and determinism.
"""

from repro.sim.experiment import ExperimentConfig, run_experiment
from repro.sim.runner import SimulationRunner
from tests.doubles import FlatNetwork, run_recorded


def small_config(**overrides):
    """A fast experiment configuration for integration tests."""
    base = dict(
        protocol="hammerhead",
        committee_size=4,
        input_load_tps=150.0,
        duration=20.0,
        warmup=4.0,
        seed=3,
        commits_per_schedule=4,
        leader_timeout=1.0,
        min_round_interval=0.10,
    )
    base.update(overrides)
    base["extra_faults"] = (FlatNetwork(), *base.get("extra_faults", ()))
    return ExperimentConfig(**base)


def run_runner(config):
    runner = SimulationRunner(config)
    result = runner.run()
    return runner, result


class TestFaultlessRuns:
    def test_hammerhead_is_live_and_commits_load(self):
        result = run_experiment(small_config())
        assert result.report.commits > 10
        assert result.report.throughput_tps > 100.0
        assert 0.0 < result.report.avg_latency_s < 3.0
        assert result.report.schedule_changes >= 1

    def test_bullshark_baseline_is_live(self):
        result = run_experiment(small_config(protocol="bullshark"))
        assert result.report.commits > 10
        assert result.report.throughput_tps > 100.0
        assert result.report.schedule_changes == 0

    def test_total_order_across_validators(self):
        _, orders, _ = run_recorded(small_config())
        sequences = [order.ids() for order in orders.values()]
        shortest = min(len(sequence) for sequence in sequences)
        assert shortest > 50
        reference = sequences[0][:shortest]
        for sequence in sequences[1:]:
            assert sequence[:shortest] == reference

    def test_schedule_agreement_across_validators(self):
        """Proposition 1: every validator walks the same schedule sequence."""
        runner, result = run_runner(small_config(committee_size=7, duration=25.0))
        histories = list(result.schedule_histories.values())
        # Validators may have advanced a different number of epochs, but the
        # histories must agree on their common prefix.
        shortest = min(len(history) for history in histories)
        assert shortest >= 2
        for history in histories:
            assert history[:shortest] == histories[0][:shortest]
        # And the slot assignments themselves agree, not only the rounds.
        slot_histories = [
            [tuple(schedule.slots) for schedule in node.schedule_manager.history]
            for node in runner.nodes.values()
        ]
        for slots in slot_histories:
            assert slots[:shortest] == slot_histories[0][:shortest]

    def test_every_validator_commits_every_transaction_once(self):
        _, orders, result = run_recorded(small_config(input_load_tps=100.0, duration=15.0))
        seen = [transaction.tx_id for record in orders[0].ordered for transaction in record.vertex.block]
        assert len(seen) == len(set(seen))
        assert result.report.committed_transactions > 0

    def test_no_leader_timeouts_without_faults(self):
        _, result = run_runner(small_config())
        assert sum(result.leader_timeouts.values()) == 0

    def test_all_validators_lead_commits_under_round_robin(self):
        _, result = run_runner(small_config(protocol="bullshark", duration=25.0))
        assert set(result.commits_per_leader.keys()) == set(range(4))


class TestDeterminism:
    def test_same_seed_same_results(self):
        """In one process: the module-level memos leak no state from one
        run into the next."""
        first = run_experiment(small_config(seed=11))
        second = run_experiment(small_config(seed=11))
        assert first.report.throughput_tps == second.report.throughput_tps
        assert first.report.avg_latency_s == second.report.avg_latency_s
        assert first.report.commits == second.report.commits
        assert first.ordering_digests == second.ordering_digests

    def test_different_seeds_differ(self):
        first = run_experiment(small_config(seed=11))
        second = run_experiment(small_config(seed=12))
        assert (
            first.report.avg_latency_s != second.report.avg_latency_s
            or first.ordering_digests != second.ordering_digests
        )


class TestPartialSynchrony:
    def test_progress_resumes_after_gst(self):
        config = small_config(
            gst=5.0,
            delta=1.0,
            duration=30.0,
            warmup=10.0,
            input_load_tps=80.0,
        )
        _, orders, result = run_recorded(config)
        # After GST the system must be live: commits happened and all
        # validators agree on the ordered prefix.
        assert result.report.commits > 5
        sequences = [order.ids() for order in orders.values()]
        shortest = min(len(sequence) for sequence in sequences)
        reference = sequences[0][:shortest]
        for sequence in sequences[1:]:
            assert sequence[:shortest] == reference

    def test_safety_holds_despite_pre_gst_asynchrony(self):
        config = small_config(gst=8.0, delta=1.5, duration=25.0, warmup=10.0, committee_size=7)
        runner, result = run_runner(config)
        histories = list(result.schedule_histories.values())
        shortest = min(len(history) for history in histories)
        for history in histories:
            assert history[:shortest] == histories[0][:shortest]
