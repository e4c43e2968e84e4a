"""Unit tests for transactions and load generators."""

import bisect
from array import array
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dag.vertex import make_vertex
from repro.errors import WorkloadError
from repro.netexec import codec
from repro.network.simulator import Simulator
from repro.workload.generator import MAX_RATE_PER_CLIENT, ClientArrivals, LoadGenerator, _Column, spawn_load
from repro.workload.transactions import Transaction, TransactionPool, transaction_columns
from tests.conftest import vid
from tests.doubles import PoolTarget, pooled


class FakeValidator:
    """Minimal stand-in for a ValidatorNode as a load target."""

    def __init__(self, validator_id):
        self.id = validator_id
        self.received = []

    def submit_transaction(self, transaction):
        self.received.append(transaction)


class TestTransactions:
    def test_a_transaction_is_a_counter_increment_by_default(self):
        transaction = Transaction(7, client_id=2, submitted_at=1.5, target_validator=3)
        assert transaction.tx_id == 7
        assert transaction.client_id == 2
        assert transaction.submitted_at == 1.5
        assert transaction.target_validator == 3
        assert transaction.kind == "counter_increment"

    def test_transactions_are_hashable_and_frozen(self):
        transaction = Transaction(1, 0, 0.0, 0)
        assert hash(transaction) is not None
        with pytest.raises(AttributeError):
            transaction.tx_id = 9


def column_of(rows, target=5, first_id=None):
    """An arrival column holding ``rows`` (consecutive ids from the first row's)."""
    first_id = rows[0].tx_id if first_id is None else first_id
    submitted_at = array("d", [row.submitted_at for row in rows])
    clients = array("q", [row.client_id for row in rows])
    return _Column(target, None, array("d", submitted_at), submitted_at, clients, first_id)


class TestTransactionPool:
    @staticmethod
    def rows(first, count):
        return [Transaction(tx_id, tx_id % 3, 0.25 * tx_id, 5) for tx_id in range(first, first + count)]

    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("arrive"), st.integers(min_value=0, max_value=6)),
                st.tuples(st.just("gap"), st.integers(min_value=1, max_value=3)),
                st.tuples(st.just("rebuild"), st.just(0)),
                st.tuples(st.just("take"), st.integers(min_value=0, max_value=9)),
            ),
            max_size=14,
        )
    )
    def test_the_pool_is_a_fifo_across_gaps_and_columns(self, steps):
        pool = TransactionPool(5)
        column = column_of(self.rows(0, 200))
        following = 0
        fifo = deque()
        taken = []
        for kind, size in steps:
            if kind == "take":
                if not pool:
                    continue
                batch = pool.take(size)
                expected = [fifo.popleft() for _ in range(min(size, len(fifo)))]
                assert list(batch) == expected
                # One window's rows carry their ids as a range, any others an id column.
                assert type(batch.ids) in (range, array)
                if type(batch.ids) is array:
                    assert batch.ids.typecode == "q"
                assert (batch.clients.typecode, batch.submitted_at.typecode) == ("q", "d")
                taken.append((batch, expected))
            elif kind == "gap":
                following += size
            elif kind == "rebuild":
                # Later rows come from a new column, at ids further on.
                following += 3
                column = column_of(self.rows(following, 200))
            else:
                pool.add(column, following, following + size)
                fifo.extend(self.rows(following, size))
                following += size
            assert len(pool) == len(fifo)
            assert pooled(pool) == list(fifo)
        # What was taken is the taker's: the pool's later life does not show in it.
        for batch, expected in taken:
            assert list(batch) == expected

    def test_a_window_grows_only_on_its_own_column_without_a_gap(self):
        pool = TransactionPool(5)
        first, second = column_of(self.rows(0, 20)), column_of(self.rows(0, 20))
        pool.add(first, 0, 3)
        pool.add(first, 3, 5)
        pool.add(first, 7, 8)
        pool.add(second, 8, 9)
        assert [window[1:] for window in pool.windows] == [[0, 5], [7, 8], [8, 9]]
        assert pool.received == 7
        assert (pool.oldest(first), pool.oldest(second), pool.oldest(column_of(self.rows(0, 1)))) == (0, 8, None)

    def test_a_take_within_a_window_is_a_range_and_one_across_is_an_id_column(self):
        pool = TransactionPool(5)
        column = column_of(self.rows(0, 20))
        pool.add(column, 0, 4)
        pool.add(column, 6, 9)
        block = pool.take(3)
        assert block.ids == range(0, 3) and type(block.ids) is range
        block = pool.take(3)
        assert list(block.ids) == [3, 6, 7] and type(block.ids) is array
        assert list(block) == [self.rows(0, 20)[index] for index in (3, 6, 7)]
        assert pool.take(5).ids == range(8, 9)
        assert not pool.windows

    def test_a_vertex_keeps_a_taken_batch_and_encodes_it_as_its_transactions(self):
        rows = self.rows(0, 5)
        pool = TransactionPool(5)
        pool.add(column_of(rows), 0, 5)
        edges = [vid(2, index) for index in range(3)]
        batch = pool.take(5)
        assert batch.sealed
        carried = make_vertex(3, 1, edges, block=batch, created_at=1.5)
        spelled = make_vertex(3, 1, edges, block=rows, created_at=1.5)
        assert carried.block is batch
        assert spelled.block == tuple(rows)
        assert carried.digest == spelled.digest
        assert codec.encode(carried) == codec.encode(spelled)
        assert codec.decode(codec.encode(carried)) == spelled
        other_pool = TransactionPool(5)
        other_pool.add(column_of(self.rows(1, 5)), 1, 6)
        other = make_vertex(3, 1, edges, block=other_pool.take(5), created_at=1.5)
        assert codec.encode(other) != codec.encode(carried)

    def test_a_foreign_block_reduces_to_columns(self):
        rows = self.rows(4, 2)
        # A batch's own columns, as they are.
        pool = TransactionPool(5)
        pool.add(column_of(rows), 4, 6)
        batch = pool.take(2)
        assert transaction_columns(batch) == (batch.ids, batch.submitted_at)
        # The socket engine's tuple of transactions: one run of ids is a range.
        ids, submitted_at = transaction_columns(tuple(batch))
        assert (ids, submitted_at) == (range(4, 6), [1.0, 1.25])
        ids, submitted_at = transaction_columns(["opaque", rows[1], rows[0], None])
        assert (ids, submitted_at) == ([5, 4], [1.25, 1.0])
        assert transaction_columns(()) == ([], [])


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

    def test_a_settle_with_nothing_due_bisects_nothing_and_touches_no_pool(self, simulator, monkeypatch):
        import repro.workload.generator as generator_module

        calls = []

        class CountingPool(TransactionPool):
            def add(self, column, start, stop):
                calls.append(("add", self.target))
                super().add(column, start, stop)

            def oldest(self, column):
                calls.append(("oldest", self.target))
                return super().oldest(column)

        def counted_bisect_right(*args, **kwargs):
            calls.append(("bisect_right",))
            return bisect.bisect_right(*args, **kwargs)

        targets = [PoolTarget(0), PoolTarget(1)]
        for target in targets:
            target.transaction_pool = CountingPool(target.id)
        # 100 tx/s round-robin: an arrival at one of the two targets every 10 ms.
        generator = LoadGenerator(0, simulator, targets, rate=100.0, duration=1.0, start_time=1.0, submission_delay=0.0)
        generator.start()
        arrivals = ClientArrivals.of(simulator)
        first = generator._arrival(0)
        # Before the first arrival a settle builds no column.
        arrivals.settle(first / 2)
        assert arrivals._columns is None
        arrivals.settle(first)
        assert arrivals._columns is not None
        assert calls == [("add", 0)]
        # The build is done: from here on every bisect is a settle's.
        monkeypatch.setattr(generator_module, "bisect_right", counted_bisect_right)
        # Again, and then short of target 1's first arrival: no column has anything due.
        calls.clear()
        arrivals.settle(first)
        arrivals.settle(generator._arrival(1) - 1e-9)
        assert calls == []
        arrivals.settle(generator._arrival(1))
        assert calls == [("bisect_right",), ("add", 1)]

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

    def test_a_pool_holds_what_a_per_transaction_target_receives(self, simulator):
        plain = [FakeValidator(index) for index in range(3)]
        pools = [PoolTarget(index) for index in range(3)]
        spawn_load(simulator, plain, total_rate=900.0, duration=1.0)
        other = Simulator(seed=7)
        spawn_load(other, pools, total_rate=900.0, duration=1.0)
        for instant in (0.3, 0.7):
            simulator.run(until=instant)
            other.run(until=instant)
            assert [pooled(target.transaction_pool) for target in pools] == [target.received for target in plain]
        simulator.run()
        other.run()
        assert [pooled(target.transaction_pool) for target in pools] == [target.received for target in plain]
        assert sum(len(target.received) for target in plain) == 900
        # Each pool is one window: the rows of a column arrive in turn.
        assert [len(target.transaction_pool.windows) for target in pools] == [1, 1, 1]

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

    def test_a_column_keeps_every_row_from_its_oldest_pooled_one(self, simulator):
        target = PoolTarget(0)
        generator = LoadGenerator(0, simulator, [target], rate=100.0, duration=10.0)
        generator.start()
        pool = target.transaction_pool
        simulator.run(until=6.0)
        simulator.settle()
        (column,) = ClientArrivals.of(simulator)._columns
        # Nothing taken: most of the column is delivered, and all of it kept.
        assert 2 * column.position > len(column.arrivals) == 1000
        assert column.first_id == 0 and len(pool) == generator.submitted
        pool.take(550)
        simulator.run(until=9.0)
        simulator.settle()
        # Taken rows go with the next drop; pooled rows stay, under their ids.
        assert column.first_id == 550
        assert pooled(pool) == [
            Transaction(index, 0, generator._first_time + index * generator._interval, 0)
            for index in range(550, generator.submitted)
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
