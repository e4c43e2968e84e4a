"""Unit tests for transactions and load generators."""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dag.vertex import make_vertex
from repro.errors import WorkloadError
from repro.netexec import codec
from repro.network.simulator import Simulator
from repro.workload.generator import MAX_RATE_PER_CLIENT, ClientArrivals, LoadGenerator, spawn_load
from repro.workload.transactions import Transaction, TransactionBatch, counter_increment
from tests.conftest import vid


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


class TestTransactionBatch:
    @staticmethod
    def rows(first, count):
        return [Transaction(first + index, index % 3, 0.25 * (first + index), 5) for index in range(count)]

    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("extend"), st.integers(min_value=0, max_value=6)),
                st.tuples(st.just("append"), st.just(1)),
                st.tuples(st.just("take"), st.integers(min_value=0, max_value=5)),
            ),
            max_size=12,
        )
    )
    def test_the_pool_is_a_fifo(self, steps):
        pool = TransactionBatch(5)
        fifo = deque()
        taken = []
        following = 0
        for kind, size in steps:
            if kind == "take":
                batch = pool.take(size)
                expected = [fifo.popleft() for _ in range(min(size, len(fifo)))]
                assert list(batch) == expected
                for column in ("ids", "clients", "submitted_at"):
                    assert getattr(batch, column) is not getattr(pool, column)
                taken.append((batch, expected))
                continue
            rows = self.rows(following, size)
            following += size
            fifo.extend(rows)
            if kind == "append":
                pool.append(rows[0])
            else:
                ids, clients, submitted_at = ([row[field] for row in rows] for field in range(3))
                pool.extend(TransactionBatch(5, ids, clients, submitted_at))
            assert len(pool) == len(fifo)
            assert list(pool) == list(fifo)
        # What was taken is the taker's: the pool's later life does not show in it.
        for batch, expected in taken:
            assert list(batch) == expected

    def test_rows_read_as_transactions(self):
        rows = self.rows(10, 4)
        batch = TransactionBatch(5)
        for row in rows:
            batch.append(row)
        assert len(batch) == 4 and bool(batch)
        assert not TransactionBatch(5)
        assert list(batch) == rows
        assert [batch[index] for index in range(4)] == rows
        assert batch[-1] == rows[-1]
        assert batch[2].kind == "counter_increment" and batch[2].payload_bytes == 64

    def test_a_vertex_keeps_a_taken_batch_and_encodes_it_as_its_transactions(self):
        rows = self.rows(0, 5)
        pool = TransactionBatch(5)
        for row in rows:
            pool.append(row)
        edges = [vid(2, index) for index in range(3)]
        # A pool can still change, so a vertex copies it; what take()
        # hands over cannot, and is kept as it is.
        copied = make_vertex(3, 1, edges, block=pool, created_at=1.5)
        assert type(copied.block) is tuple and not pool.sealed
        batch = pool.take(5)
        assert batch.sealed
        carried = make_vertex(3, 1, edges, block=batch, created_at=1.5)
        spelled = make_vertex(3, 1, edges, block=rows, created_at=1.5)
        assert carried.block is batch
        assert spelled.block == tuple(rows)
        assert carried.digest == spelled.digest
        assert codec.encode(carried) == codec.encode(spelled)
        assert codec.decode(codec.encode(carried)) == spelled

    def test_a_batch_equals_the_tuple_of_its_rows(self):
        rows = self.rows(3, 4)
        ids, clients, submitted_at = ([row[field] for row in rows] for field in range(3))
        batch = TransactionBatch(5, ids, clients, submitted_at)
        assert batch == tuple(rows) and tuple(rows) == batch
        assert batch == TransactionBatch(5, list(ids), list(clients), list(submitted_at))
        assert hash(batch) == hash(tuple(rows))
        assert batch != tuple(rows[:-1]) and batch != tuple(reversed(rows))
        assert batch != TransactionBatch(6, list(ids), list(clients), list(submitted_at))
        assert batch != rows  # as a tuple: never equal to a list
        # A vertex holding a batch is the vertex holding the same rows: in
        # memory, after a codec round trip, and as a set member.
        edges = [vid(2, index) for index in range(3)]
        carried = make_vertex(3, 1, edges, block=batch.take(4))
        spelled = make_vertex(3, 1, edges, block=rows)
        assert carried == spelled and spelled == carried
        assert codec.decode(codec.encode(carried)) == carried
        assert len({carried, spelled}) == 1
        assert carried != make_vertex(3, 1, edges, block=self.rows(4, 4))

    def test_a_sealed_batch_does_not_change(self):
        pool = TransactionBatch(5)
        pool.append(Transaction(0, 0, 0.0, 5))
        taken = pool.take(1)
        with pytest.raises(WorkloadError):
            taken.append(Transaction(1, 0, 0.25, 5))
        with pytest.raises(WorkloadError):
            taken.extend(TransactionBatch(5, [1], [0], [0.25]))
        assert list(taken) == [Transaction(0, 0, 0.0, 5)]

    @pytest.mark.parametrize(
        "row",
        [
            Transaction(1, 0, 0.25, 6),
            Transaction(1, 0, 0.25, 5, kind="transfer"),
            Transaction(1, 0, 0.25, 5, payload_bytes=512),
            "opaque",
        ],
    )
    def test_a_row_the_columns_cannot_hold_is_refused(self, row):
        # The columns say nothing of kind, size or target: a row that
        # differs there would be proposed and encoded as another one.
        pool = TransactionBatch(5)
        with pytest.raises(WorkloadError):
            pool.append(row)
        assert len(pool) == 0
        with pytest.raises(WorkloadError):
            pool.extend(TransactionBatch(6, [1], [0], [0.25]))
        assert len(pool) == 0

    @pytest.mark.parametrize(
        "row",
        [
            Transaction(2**63, 0, 0.25, 5),
            Transaction(-(2**63) - 1, 0, 0.25, 5),
            Transaction(1, 2**63, 0.25, 5),
            Transaction(1.5, 0, 0.25, 5),
            Transaction(1, 0, "soon", 5),
            Transaction(1, 0, None, 5),
            (1, 0),
        ],
    )
    def test_a_value_a_typed_column_cannot_hold_is_refused_whole(self, row):
        # A list took anything; ``array`` raises on the second or third
        # column, after the first has grown.  Nothing may have grown.
        pool = TransactionBatch(5)
        pool.append(Transaction(0, 0, 0.0, 5))
        with pytest.raises(WorkloadError, match="is no row of a batch for validator 5"):
            pool.append(row)
        assert len(pool.ids) == len(pool.clients) == len(pool.submitted_at) == 1
        assert list(pool) == [Transaction(0, 0, 0.0, 5)]
        sealed = pool.take(1)
        with pytest.raises(WorkloadError):
            sealed.append(Transaction(1, 0, 0.25, 5))
        assert len(sealed.ids) == len(sealed.clients) == len(sealed.submitted_at) == 1

    @pytest.mark.parametrize(
        "columns",
        [
            ([1, 2**63], [0, 0], [0.25, 0.5]),
            ([1, 2], [0, -(2**63) - 1], [0.25, 0.5]),
            ([1, 2], [0, 0], [0.25, "soon"]),
            ([1, 2.5], [0, 0], [0.25, 0.5]),
            ([1, 2], [0], [0.25, 0.5]),
            ([1, 2], [0, 0], [0.25]),
            (7, [0], [0.25]),
        ],
    )
    def test_columns_are_coerced_or_refused_at_construction(self, columns):
        with pytest.raises(WorkloadError):
            TransactionBatch(5, *columns)
        # ... so nothing half-typed ever reaches a pool.
        pool = TransactionBatch(5, [0], [0], [0.0])
        with pytest.raises(WorkloadError):
            pool.extend(TransactionBatch(5, *columns))
        assert len(pool.ids) == len(pool.clients) == len(pool.submitted_at) == 1

    def test_every_column_is_typed_whatever_it_was_built_from(self):
        from array import array

        from repro.workload.transactions import transaction_columns

        kept = array("q", [4, 5])
        batch = TransactionBatch(5, kept, (0, 1), iter([0.25, 1]))
        assert batch.ids is kept  # a column of the right type is owned, not copied
        assert [column.typecode for column in (batch.ids, batch.clients, batch.submitted_at)] == ["q", "q", "d"]
        assert list(batch) == [Transaction(4, 0, 0.25, 5), Transaction(5, 1, 1.0, 5)]
        taken = batch.take(1)
        assert [column.typecode for column in (taken.ids, taken.clients, taken.submitted_at)] == ["q", "q", "d"]
        # A foreign block (the socket engine's tuple of transactions)
        # reduces to the same two types as a batch's own columns.
        for block in (taken, tuple(taken), ["opaque", *batch]):
            ids, submitted_at = transaction_columns(block)
            assert (type(ids), ids.typecode, type(submitted_at), submitted_at.typecode) == (array, "q", array, "d")
        with pytest.raises(WorkloadError):
            transaction_columns([Transaction(2**63, 0, 0.25, 5)])


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

    def test_deliveries_carry_the_client_and_the_target(self, simulator):
        target = FakeValidator(4)
        generator = LoadGenerator(
            client_id=3,
            simulator=simulator,
            targets=[target],
            rate=10.0,
            duration=1.0,
        )
        generator.start()
        simulator.run()
        assert len(target.received) == 10
        assert all(transaction.client_id == 3 for transaction in target.received)
        assert all(transaction.target_validator == 4 for transaction in target.received)

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
        targets = [FakeValidator(0), FakeValidator(1)]
        for client in range(2):
            LoadGenerator(
                client_id=client,
                simulator=simulator,
                targets=targets,
                rate=50.0,
                duration=1.0,
            ).start()
        simulator.run()
        ids = [transaction.tx_id for target in targets for transaction in target.received]
        assert len(ids) == len(set(ids)) == 100
        # ... per simulator: a second one numbers its transactions the same.
        again = Simulator(seed=7)
        target = FakeValidator(0)
        LoadGenerator(0, again, [target], rate=50.0, duration=1.0).start()
        again.run()
        assert [transaction.tx_id for transaction in target.received] == list(range(50))


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
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0,
            simulator=simulator,
            targets=[target],
            rate=10.0,
            duration=1.0,
        )
        generator.start()
        simulator.run()
        seen = target.received
        gaps = [b.submitted_at - a.submitted_at for a, b in zip(seen, seen[1:])]
        assert len(gaps) == 9
        assert all(gap == pytest.approx(0.1) for gap in gaps)

    def test_a_batch_target_receives_what_a_per_transaction_target_does(self, simulator):
        class BatchValidator(FakeValidator):
            def submit_transactions(self, batch):
                self.received.extend(batch)

        plain = [FakeValidator(index) for index in range(3)]
        batched = [BatchValidator(index) for index in range(3)]
        spawn_load(simulator, plain, total_rate=900.0, duration=1.0)
        other = Simulator(seed=7)
        spawn_load(other, batched, total_rate=900.0, duration=1.0)
        for instant in (0.3, 0.7):
            simulator.run(until=instant)
            other.run(until=instant)
            assert [target.received for target in batched] == [target.received for target in plain]
        simulator.run()
        other.run()
        assert [target.received for target in batched] == [target.received for target in plain]
        assert sum(len(target.received) for target in plain) == 900

    def test_a_column_drops_its_delivered_prefix_and_keeps_the_ids(self, simulator):
        target = FakeValidator(0)
        generator = LoadGenerator(0, simulator, [target], rate=100.0, duration=10.0)
        generator.start()
        held = []
        for instant in (0.5, 3.0, 5.1, 5.2, 8.0, 9.9):
            simulator.run(until=instant)
            simulator.settle()
            (column,) = ClientArrivals.of(simulator)._columns
            held.append((len(column.arrivals), column.position, column.first_id))
        simulator.run()
        # Never more than half the column is delivered rows, and the rows
        # it drops move its first id.
        assert all(2 * position <= length for length, position, _ in held)
        assert held[-1][0] < 1000 // 2
        assert [first_id for _, _, first_id in held] == sorted(first_id for _, _, first_id in held)
        assert [transaction.tx_id for transaction in target.received] == list(range(1000))
        assert [transaction.submitted_at for transaction in target.received] == [
            generator._first_time + index * generator._interval for index in range(1000)
        ]

    def test_slices_of_a_column_keep_simultaneous_arrivals_together(self, simulator, monkeypatch):
        import repro.workload.generator as generator_module

        # Clients 0 and 17 submit on the same instants and client 18 at a
        # tenth of their rate; slices of three rows a client cut the
        # column everywhere, one sort does not.
        rate = 18 * MAX_RATE_PER_CLIENT + 35.0
        targets = [FakeValidator(0)]
        spawn_load(simulator, targets, total_rate=rate, duration=0.1)
        simulator.run()
        other = Simulator(seed=7)
        sliced = [FakeValidator(0)]
        monkeypatch.setattr(generator_module, "_SLICE_ROWS", 3)
        spawn_load(other, sliced, total_rate=rate, duration=0.1)
        other.run()
        arrived = [transaction.submitted_at for transaction in targets[0].received]
        assert len(set(arrived)) < len(arrived)
        assert sliced[0].received == targets[0].received

    def test_transaction_ids_are_a_function_of_the_run(self):
        """Regression: ids came from a process-wide counter, so the second
        of two identical runs in one interpreter carried different ones."""
        from repro.sim.experiment import ExperimentConfig
        from repro.sim.runner import SimulationRunner

        config = ExperimentConfig(
            committee_size=4, input_load_tps=300.0, duration=6.0, warmup=1.0, seed=6
        )

        def observed():
            runner = SimulationRunner(config)
            stream = []
            runner.nodes[config.observer].on_ordered(
                lambda record: stream.extend(tuple(t[:4]) for t in record.vertex.block)
            )
            runner.run()
            return stream

        first = observed()
        assert len(first) > 500
        assert observed() == first

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

    def test_a_burst_on_an_edge_of_the_window_has_one_base_phase(self):
        from repro.workload.phases import burst_phases

        leading = burst_phases(100.0, 400.0, burst_start=0.0, burst_end=5.0, start=0.0, end=20.0)
        assert [(p.start, p.end, p.tps) for p in leading] == [(0.0, 5.0, 400.0), (5.0, 20.0, 100.0)]
        trailing = burst_phases(100.0, 400.0, burst_start=15.0, burst_end=20.0, start=0.0, end=20.0)
        assert [(p.start, p.end, p.tps) for p in trailing] == [(0.0, 15.0, 100.0), (15.0, 20.0, 400.0)]
        (whole,) = burst_phases(100.0, 400.0, burst_start=0.0, burst_end=20.0, start=0.0, end=20.0)
        assert (whole.start, whole.end, whole.tps) == (0.0, 20.0, 400.0)

    @pytest.mark.parametrize(
        "burst_start, burst_end",
        [
            pytest.param(-1.0, 5.0, id="starts-before-the-window"),
            pytest.param(15.0, 21.0, id="ends-after-the-window"),
            pytest.param(5.0, 5.0, id="empty"),
        ],
    )
    def test_a_burst_outside_the_load_window_is_refused(self, burst_start, burst_end):
        from repro.workload.phases import burst_phases

        with pytest.raises(WorkloadError, match="burst window"):
            burst_phases(100.0, 400.0, burst_start=burst_start, burst_end=burst_end, start=0.0, end=20.0)

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
