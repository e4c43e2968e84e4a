"""Unit tests for transactions and load generators."""

import pytest

from repro.errors import WorkloadError
from repro.workload.generator import MAX_RATE_PER_CLIENT, LoadGenerator, spawn_load
from repro.workload.transactions import counter_increment


class FakeValidator:
    """Minimal stand-in for a ValidatorNode as a load target."""

    def __init__(self, validator_id):
        self.id = validator_id
        self.received = []

    def submit_transaction(self, transaction):
        self.received.append(transaction)


class TestTransactions:
    def test_counter_increment_fields(self):
        transaction = counter_increment(7, client_id=2, submitted_at=1.5, target_validator=3)
        assert transaction.tx_id == 7
        assert transaction.client_id == 2
        assert transaction.submitted_at == 1.5
        assert transaction.target_validator == 3
        assert transaction.kind == "counter_increment"

    def test_transactions_are_hashable_and_frozen(self):
        transaction = counter_increment(1, 0, 0.0, 0)
        assert hash(transaction) is not None
        with pytest.raises(Exception):
            transaction.tx_id = 9

    def test_canonical_fields_exclude_timing(self):
        first = counter_increment(1, 0, 0.0, 0)
        second = counter_increment(1, 0, 5.0, 0)
        assert first.canonical_fields() == second.canonical_fields()


class TestLoadGenerator:
    def test_submits_at_requested_rate(self, simulator):
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=[target],
            rate=100.0,
            duration=2.0,
            submission_delay=0.0,
        )
        generator.start()
        simulator.run()
        assert generator.submitted == 200
        assert len(target.received) == 200

    def test_round_robin_over_targets(self, simulator):
        targets = [FakeValidator(index) for index in range(4)]
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=targets,
            rate=40.0,
            duration=1.0,
            submission_delay=0.0,
        )
        generator.start()
        simulator.run()
        counts = [len(target.received) for target in targets]
        assert sum(counts) == 40
        assert max(counts) - min(counts) <= 1

    def test_submission_delay_is_applied(self, simulator):
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=[target],
            rate=10.0,
            duration=0.5,
            submission_delay=0.2,
        )
        generator.start()
        simulator.run()
        assert simulator.now >= 0.2

    def test_on_submit_callback(self, simulator):
        seen = []
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=[target],
            rate=10.0,
            duration=1.0,
            on_submit=seen.append,
        )
        generator.start()
        simulator.run()
        assert len(seen) == 10
        assert all(transaction.client_id == 0 for transaction in seen)

    def test_rate_above_per_client_cap_rejected(self, simulator):
        with pytest.raises(WorkloadError):
            LoadGenerator(0, simulator, [FakeValidator(0)], rate=500.0, duration=1.0)

    def test_zero_rate_rejected(self, simulator):
        with pytest.raises(WorkloadError):
            LoadGenerator(0, simulator, [FakeValidator(0)], rate=0.0, duration=1.0)

    def test_empty_targets_rejected(self, simulator):
        with pytest.raises(WorkloadError):
            LoadGenerator(0, simulator, [], rate=10.0, duration=1.0)

    def test_transaction_ids_are_unique(self, simulator):
        seen = []
        targets = [FakeValidator(0)]
        for client in range(2):
            LoadGenerator(
                client_id=client,
                simulator=simulator,
                targets=targets,
                rate=50.0,
                duration=1.0,
                on_submit=seen.append,
            ).start()
        simulator.run()
        ids = [transaction.tx_id for transaction in seen]
        assert len(ids) == len(set(ids)) == 100


class TestSpawnLoad:
    def test_spawns_enough_clients_for_total_rate(self, simulator):
        generators = spawn_load(
            simulator, [FakeValidator(0)], total_rate=1000.0, duration=1.0
        )
        assert len(generators) == 3  # 350 + 350 + 300
        assert sum(generator.rate for generator in generators) == pytest.approx(1000.0)
        assert all(generator.rate <= MAX_RATE_PER_CLIENT for generator in generators)

    def test_single_client_for_small_rate(self, simulator):
        generators = spawn_load(simulator, [FakeValidator(0)], total_rate=100.0, duration=1.0)
        assert len(generators) == 1

    def test_total_submissions_match_rate(self, simulator):
        target = FakeValidator(0)
        spawn_load(simulator, [target], total_rate=700.0, duration=2.0, submission_delay=0.0)
        simulator.run()
        assert len(target.received) == pytest.approx(1400, abs=5)

    def test_zero_rate_rejected(self, simulator):
        with pytest.raises(WorkloadError):
            spawn_load(simulator, [FakeValidator(0)], total_rate=0.0, duration=1.0)


class TestMergedSubmissionEvents:
    """Arrivals are merged across clients and delivered when a pool is read."""

    def test_no_heap_event_per_transaction(self, simulator):
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=[target],
            rate=100.0,
            duration=1.0,
            submission_delay=0.040,
        )
        generator.start()
        simulator.run()
        # 100 transactions and not one simulator event: run-to-idle
        # delivers the whole schedule on the way out.
        assert simulator.events_fired == 0
        assert len(target.received) == 100
        assert simulator.now == pytest.approx(0.99 + 0.040)

    def test_a_read_sees_exactly_the_arrivals_due(self, simulator):
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=[target],
            rate=50.0,
            duration=1.0,
            submission_delay=0.25,
        )
        generator.start()
        # Transaction i is submitted at i/50 and arrives 0.25 later; a read
        # at t sees those with submitted_at + delay <= t, the bound included.
        seen = []
        for instant in (0.1, 0.25, 0.2500001, 0.5, 0.77, 1.5):
            simulator.schedule_at(
                instant,
                lambda: (simulator.settle(), seen.append((simulator.now, len(target.received)))),
            )
        simulator.run()
        assert seen == [(0.1, 0), (0.25, 1), (0.2500001, 1), (0.5, 13), (0.77, 27), (1.5, 50)]
        for transaction in target.received:
            assert transaction.submitted_at + 0.25 <= 1.5
        # Nothing is created ahead of its arrival instant.
        late = LoadGenerator(1, simulator, [target], rate=10.0, duration=1.0, start_time=2.0)
        late.start()
        simulator.run(until=2.040)
        assert late.submitted == 0
        simulator.run(until=2.050)
        assert late.submitted == 1

    def test_submission_timestamps_follow_the_rate(self, simulator):
        seen = []
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=[FakeValidator(0)],
            rate=10.0,
            duration=1.0,
            on_submit=seen.append,
        )
        generator.start()
        simulator.run()
        gaps = [b.submitted_at - a.submitted_at for a, b in zip(seen, seen[1:])]
        assert all(gap == pytest.approx(0.1) for gap in gaps)

    def test_runs_are_deterministic_end_to_end(self):
        """Gate for the tie-break renumbering: same config, same bytes."""
        from repro.sim.experiment import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            committee_size=4, input_load_tps=300.0, duration=8.0, warmup=2.0, seed=6
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.ordering_digests == second.ordering_digests
        assert first.report.as_dict() == second.report.as_dict()


class TestLoadPhases:
    def test_phase_validation(self):
        from repro.workload.phases import LoadPhase, validate_phases

        with pytest.raises(WorkloadError):
            LoadPhase(2.0, 1.0, 100.0)
        with pytest.raises(WorkloadError):
            LoadPhase(-1.0, 1.0, 100.0)
        with pytest.raises(WorkloadError):
            validate_phases([LoadPhase(0.0, 2.0, 10.0), LoadPhase(1.0, 3.0, 10.0)])

    def test_burst_shape(self):
        from repro.workload.phases import burst_phases

        phases = burst_phases(100.0, 400.0, burst_start=5.0, burst_end=10.0, start=0.0, end=20.0)
        assert [(p.start, p.end, p.tps) for p in phases] == [
            (0.0, 5.0, 100.0),
            (5.0, 10.0, 400.0),
            (10.0, 20.0, 100.0),
        ]

    def test_ramp_shape(self):
        from repro.workload.phases import ramp_phases

        phases = ramp_phases(100.0, 400.0, steps=4, start=0.0, end=8.0)
        assert [p.tps for p in phases] == [100.0, 200.0, 300.0, 400.0]
        assert phases[-1].end == 8.0

    def test_diurnal_shape_clamps_at_zero(self):
        from repro.workload.phases import diurnal_phases

        phases = diurnal_phases(
            base_tps=100.0, amplitude=300.0, period=10.0, steps=10, start=0.0, end=10.0
        )
        assert all(p.tps >= 0.0 for p in phases)
        assert any(p.tps == 0.0 for p in phases)
        assert any(p.tps > 100.0 for p in phases)

    def test_average_tps_is_time_weighted(self):
        from repro.workload.phases import LoadPhase, average_tps

        phases = [LoadPhase(0.0, 1.0, 100.0), LoadPhase(1.0, 4.0, 500.0)]
        assert average_tps(phases) == pytest.approx((100.0 + 3 * 500.0) / 4.0)

    def test_spawn_phased_load_skips_quiet_windows(self, simulator):
        from repro.workload.phases import LoadPhase, spawn_phased_load

        target = FakeValidator(0)
        generators = spawn_phased_load(
            simulator,
            [target],
            [LoadPhase(0.0, 1.0, 100.0), LoadPhase(1.0, 2.0, 0.0), LoadPhase(2.0, 3.0, 50.0)],
            submission_delay=0.0,
        )
        simulator.run()
        assert len(generators) == 2
        assert len(target.received) == 150
        # No transaction was submitted during the quiet window.
        quiet = [t for t in target.received if 1.0 < t.submitted_at < 2.0]
        assert quiet == []
