"""Unit tests for metrics: latency stats, execution model, collector, reports."""

from array import array
from itertools import chain

import pytest

from repro.consensus.committed import OrderedVertex
from repro.dag.vertex import make_vertex
from repro.metrics.collector import MetricsCollector
from repro.metrics.execution import ExecutionModel
from repro.metrics.latency import LatencyStats
from repro.metrics.leader_stats import LeaderUtilizationStats
from repro.metrics.report import PerformanceReport, format_table
from repro.consensus.committed import CommittedSubDag
from repro.errors import ConfigurationError
from repro.workload.generator import _Column
from repro.workload.transactions import Transaction, TransactionPool
from tests.conftest import vid


class TestLatencyStats:
    def test_empty_stats_are_zero(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert stats.average() == 0.0
        assert stats.p50() == 0.0
        assert stats.stdev() == 0.0
        assert stats.percentiles(0.5, 0.95) == (0.0, 0.0)

    def test_average(self):
        stats = LatencyStats()
        stats.extend([1.0, 2.0, 3.0])
        assert stats.average() == pytest.approx(2.0)

    def test_percentiles_interpolate(self):
        stats = LatencyStats()
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.p50() == pytest.approx(2.5)
        assert stats.percentiles(0.0) == (1.0,)
        assert stats.percentiles(1.0) == (4.0,)

    def test_percentiles_monotone_under_rounding(self):
        # Regression (hypothesis-found): with values near 1e6 the old
        # two-product interpolation rounded p99 below p95.
        stats = LatencyStats()
        stats.extend([0.0, 1000000.0, 999999.9999999999])
        p50, p95, p99 = stats.percentiles(0.50, 0.95, 0.99)
        assert p50 <= p95 <= p99 <= 1000000.0

    def test_p95_close_to_max_for_uniform_samples(self):
        stats = LatencyStats()
        stats.extend([float(value) for value in range(1, 101)])
        assert 95.0 <= stats.p95() <= 96.0

    def test_single_sample(self):
        stats = LatencyStats()
        stats.extend([5.0])
        assert stats.p50() == 5.0
        assert stats.p95() == 5.0
        assert stats.stdev() == 0.0

    def test_stdev(self):
        stats = LatencyStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.stdev() == pytest.approx(2.138, abs=1e-3)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().extend([-1.0])
        stats = LatencyStats()
        with pytest.raises(ValueError):
            stats.extend([1.0, -1.0])
        assert stats.count == 0

    def test_invalid_percentile_rejected(self):
        stats = LatencyStats()
        stats.extend([1.0])
        with pytest.raises(ValueError):
            stats.percentiles(1.5)

    def test_samples_recorded_after_a_query_count(self):
        stats = LatencyStats()
        stats.extend([3.0, 1.0])
        assert stats.p50() == 2.0
        stats.extend([0.5])
        assert stats.p50() == 1.0
        stats.extend([9.0])
        assert stats.percentiles(0.0, 1.0) == (0.5, 9.0)

    def test_percentiles_match_one_at_a_time(self):
        stats = LatencyStats()
        stats.extend([0.4, 2.5, 1.1, 0.9, 3.3, 0.2])
        assert stats.percentiles(0.95, 0.5, 0.99) == (stats.p95(), stats.p50(), stats.percentiles(0.99)[0])
        with pytest.raises(ValueError):
            stats.percentiles(0.5, -0.1)


class TestLatencyBlocks:
    def test_each_extend_is_one_block_in_sample_order(self):
        stats = LatencyStats()
        stats.extend([0.0, 1.0, 2.0])
        stats.extend(array("d", [3.0, 4.0]))
        stats.extend([])
        stats.extend((5.0,))
        assert [block.typecode for block in stats.blocks] == ["d"] * 3
        assert [list(block) for block in stats.blocks] == [[0.0, 1.0, 2.0], [3.0, 4.0], [5.0]]
        assert stats.count == 6

    def test_latency_percentiles_span_blocks(self):
        stats = LatencyStats()
        stats.extend([5.0, 1.0, 4.0, 2.0])
        stats.extend([3.0])
        assert len(stats.blocks) == 2
        assert stats.percentiles(0.0, 0.5, 1.0) == (1.0, 3.0, 5.0)
        assert stats.average() == 3.0


class TestExecutionModel:
    def test_below_capacity_adds_only_service_time(self):
        model = ExecutionModel(capacity_tps=100.0)
        (finish,) = model.execute_many(1, ordered_at=10.0)
        assert finish == pytest.approx(10.01)

    def test_saturation_builds_a_queue(self):
        model = ExecutionModel(capacity_tps=10.0)
        finishes = [model.execute_many(1, ordered_at=0.0)[0] for _ in range(10)]
        assert finishes[-1] == pytest.approx(1.0)

    def test_idle_periods_drain_the_queue(self):
        model = ExecutionModel(capacity_tps=10.0)
        model.execute_many(1, ordered_at=0.0)
        (finish,) = model.execute_many(1, ordered_at=5.0)
        assert finish == pytest.approx(5.1)

    def test_executed_counter(self):
        model = ExecutionModel(capacity_tps=10.0)
        for _ in range(3):
            model.execute_many(1, 0.0)
        assert model.executed == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionModel(0.0)

    def test_a_batch_completes_one_service_time_apart(self):
        model = ExecutionModel(capacity_tps=10.0)
        assert model.execute_many(3, ordered_at=1.0) == pytest.approx([1.1, 1.2, 1.3])
        assert model.executed == 3

    def test_a_batch_queues_behind_the_previous_one(self):
        model = ExecutionModel(capacity_tps=10.0)
        model.execute_many(2, ordered_at=0.0)
        assert model.execute_many(2, ordered_at=0.05) == pytest.approx([0.3, 0.4])

    def test_a_batch_equals_one_call_per_transaction(self):
        batched, single = ExecutionModel(capacity_tps=7.0), ExecutionModel(capacity_tps=7.0)
        for ordered_at, count in ((0.0, 5), (0.3, 3), (4.0, 2), (4.1, 6)):
            expected = [single.execute_many(1, ordered_at)[0] for _ in range(count)]
            assert batched.execute_many(count, ordered_at) == expected
        assert batched.executed == single.executed == 16


def ordered_record(transactions, ordered_at, source=1, round_number=3, position=0):
    vertex = make_vertex(
        round_number,
        source,
        edges=[vid(round_number - 1, index) for index in range(3)],
        block=transactions,
    )
    return OrderedVertex(vertex=vertex, ordered_at=ordered_at, anchor_round=4, position=position)


class TestMetricsCollector:
    def test_latency_includes_confirmation_delay(self):
        collector = MetricsCollector(confirmation_delay=0.1)
        transaction = Transaction(1, 0, submitted_at=1.0, target_validator=0)
        collector.on_transaction_submitted(transaction)
        collector.on_vertex_ordered(ordered_record((transaction,), ordered_at=2.0))
        assert collector.committed == 1
        assert collector.latency.average() == pytest.approx(1.1)

    def test_duplicate_orderings_count_once(self):
        collector = MetricsCollector()
        transaction = Transaction(1, 0, submitted_at=1.0, target_validator=0)
        collector.on_transaction_submitted(transaction)
        collector.on_vertex_ordered(ordered_record((transaction,), ordered_at=2.0))
        collector.on_vertex_ordered(ordered_record((transaction,), ordered_at=3.0, source=2))
        assert collector.committed == 1
        assert collector.duplicate_commits == 1

    def test_an_ordered_transaction_counts_without_being_announced(self):
        collector = MetricsCollector()
        transaction = Transaction(5, 0, submitted_at=1.0, target_validator=0)
        collector.on_vertex_ordered(ordered_record((transaction,), ordered_at=2.0))
        assert collector.committed == 1
        assert list(chain.from_iterable(collector.latency.blocks)) == [pytest.approx(2.0 + 0.040 - 1.0)]
        # Nothing was announced and no client is attached.
        assert collector.submitted == 0

    def test_submissions_are_read_from_attached_clients_on_demand(self):
        class Client:
            submitted = 0

        collector = MetricsCollector()
        clients = [Client(), Client()]
        collector.attach_clients(clients)
        first = Transaction(0, 0, submitted_at=1.0, target_validator=0)
        second = Transaction(1, 0, submitted_at=1.0, target_validator=0)
        collector.on_vertex_ordered(ordered_record((first, second), ordered_at=2.0))
        clients[0].submitted = 3
        clients[1].submitted = 1
        # One source for the number, right whenever it is read.
        assert collector.submitted == 4
        # A client that is not attached announces its own.
        collector.on_transaction_submitted(first)
        assert collector.submitted == 5

    def test_warmup_excludes_early_transactions(self):
        collector = MetricsCollector(warmup=10.0)
        early = Transaction(1, 0, submitted_at=5.0, target_validator=0)
        late = Transaction(2, 0, submitted_at=15.0, target_validator=0)
        for transaction in (early, late):
            collector.on_transaction_submitted(transaction)
        collector.on_vertex_ordered(ordered_record((early, late), ordered_at=16.0))
        assert collector.committed == 1
        assert collector.latency.count == 1

    def test_throughput_counts_only_transactions_finalized_within_run(self):
        collector = MetricsCollector(
            confirmation_delay=0.0, execution=ExecutionModel(capacity_tps=1.0)
        )
        transactions = [
            Transaction(index, 0, submitted_at=1.0, target_validator=0) for index in range(10)
        ]
        for transaction in transactions:
            collector.on_transaction_submitted(transaction)
        collector.on_vertex_ordered(ordered_record(tuple(transactions), ordered_at=2.0))
        # Execution takes 1 s per transaction: only 3 finish by t=5.
        assert collector.throughput(duration=5.0) == pytest.approx(3 / 5.0)

    def test_non_transaction_payloads_are_skipped(self):
        collector = MetricsCollector()
        collector.on_vertex_ordered(ordered_record(("opaque",), ordered_at=2.0))
        assert collector.committed == 0

    def test_committed_ids_are_kept_as_ranges(self):
        collector = MetricsCollector(warmup=10.0)
        early = Transaction(1, 0, submitted_at=5.0, target_validator=0)
        late = Transaction(2, 0, submitted_at=15.0, target_validator=0)
        pending = Transaction(3, 0, submitted_at=15.5, target_validator=0)
        apart = Transaction(7, 0, submitted_at=15.5, target_validator=0)
        for transaction in (early, late, pending, apart):
            collector.on_transaction_submitted(transaction)
        collector.on_vertex_ordered(ordered_record((early, late), ordered_at=16.0))
        collector.on_vertex_ordered(ordered_record((apart,), ordered_at=16.0, source=2))
        # Committed transactions (warm-up ones included) hold no entry of
        # their own: a block of adjacent ids is one range; a transaction
        # still in flight is in none.
        assert collector._committed_starts == [1, 7]
        assert collector._committed_stops == [3, 8]
        assert collector.committed == 2
        assert collector.submitted == 4
        collector.on_vertex_ordered(ordered_record((pending, late), ordered_at=17.0, source=3))
        assert collector._committed_starts == [1, 3, 7]
        assert collector._committed_stops == [3, 4, 8]
        assert collector.committed == 3
        assert collector.duplicate_commits == 1

    @staticmethod
    def cut_block(pool_target=0):
        """A block taken across a crash gap and a column rebuild: ids 0-3
        and 6-8 of one arrival column, then 30-32 of the next."""
        def column(first_id, rows):
            submitted_at = array("d", [1.0 + 0.01 * index for index in range(rows)])
            return _Column(pool_target, None, array("d", submitted_at), submitted_at, array("q", [0]) * rows, first_id)

        pool = TransactionPool(pool_target)
        before, after = column(0, 20), column(30, 10)
        pool.add(before, 0, 4)
        pool.add(before, 6, 9)
        pool.add(after, 30, 33)
        block = pool.take(20)
        assert type(block.ids) is array and len(pool.windows) == 0
        return block

    def test_a_block_cut_across_a_crash_gap_adds_one_range_per_window(self):
        collector = MetricsCollector()
        collector.on_vertex_ordered(ordered_record(self.cut_block(), ordered_at=2.0))
        assert list(zip(collector._committed_starts, collector._committed_stops)) == [(0, 4), (6, 9), (30, 33)]
        assert (collector.committed, collector.duplicate_commits) == (10, 0)
        # Ordered again, every id is a duplicate and no range is added.
        collector.on_vertex_ordered(ordered_record(self.cut_block(), ordered_at=3.0, source=2))
        assert len(collector._committed_starts) == 3
        assert (collector.committed, collector.duplicate_commits) == (10, 10)

    def test_only_a_run_that_overlaps_committed_ids_is_claimed_id_by_id(self):
        collector = MetricsCollector()
        seven = Transaction(7, 0, submitted_at=1.0, target_validator=0)
        collector.on_vertex_ordered(ordered_record((seven,), ordered_at=1.5))
        collector.on_vertex_ordered(ordered_record(self.cut_block(), ordered_at=2.0, source=2))
        assert list(zip(collector._committed_starts, collector._committed_stops)) == [
            (0, 4), (6, 7), (7, 8), (8, 9), (30, 33)
        ]
        assert (collector.committed, collector.duplicate_commits) == (10, 1)
        # The duplicate's submission time is the one left out.
        assert len(collector.latency.blocks[-1]) == 9
        assert collector.latency.blocks[-1][4] == pytest.approx(2.0 + 0.040 - 1.06)

    def test_duplicates_are_recognised_after_the_first_commit(self):
        collector = MetricsCollector()
        transaction = Transaction(1, 0, submitted_at=1.0, target_validator=0)
        other = Transaction(2, 0, submitted_at=1.0, target_validator=0)
        for submitted in (transaction, other):
            collector.on_transaction_submitted(submitted)
        # Twice in one block, again in a later vertex, next to a
        # transaction committing for the first time.
        collector.on_vertex_ordered(ordered_record((transaction, transaction), ordered_at=2.0))
        collector.on_vertex_ordered(
            ordered_record((other, transaction), ordered_at=3.0, source=2)
        )
        assert collector.committed == 2
        assert collector.duplicate_commits == 2
        assert list(chain.from_iterable(collector.latency.blocks)) == [
            pytest.approx(2.0 + 0.040 - 1.0),
            pytest.approx(3.0 + 0.040 - 1.0),
        ]

    def test_execution_queue_carries_over_between_vertices(self):
        batched = MetricsCollector(confirmation_delay=0.0, execution=ExecutionModel(10.0))
        model = ExecutionModel(10.0)
        transactions = [
            Transaction(index, 0, submitted_at=0.0, target_validator=0) for index in range(6)
        ]
        for transaction in transactions:
            batched.on_transaction_submitted(transaction)
        batched.on_vertex_ordered(ordered_record(tuple(transactions[:4]), ordered_at=1.0))
        batched.on_vertex_ordered(ordered_record(tuple(transactions[4:]), ordered_at=1.2, source=2))
        expected = [model.execute_many(1, 1.0)[0] for _ in range(4)]
        expected += [model.execute_many(1, 1.2)[0] for _ in range(2)]
        assert list(chain.from_iterable(batched.latency.blocks)) == expected
        assert batched.execution.executed == 6
        assert batched.execution._busy_until == model._busy_until


class TestLeaderUtilizationStats:
    def _subdag(self, round_number, leader):
        anchor = make_vertex(
            round_number, leader, edges=[vid(round_number - 1, index) for index in range(3)]
        )
        return CommittedSubDag(anchor=anchor, vertices=(anchor,), committed_at=1.0, direct=True)

    def test_commits_and_skips(self):
        stats = LeaderUtilizationStats()
        stats.record_commit(self._subdag(2, leader=0))
        stats.record_commit(self._subdag(6, leader=2))
        stats.finalize_skips(6, leader_of=lambda round_number: (round_number // 2 - 1) % 4)
        assert len(stats.committed_rounds) == 2
        assert stats.skips == 1
        assert stats.skipped_rounds == {4: 1}

    def test_commits_per_leader(self):
        stats = LeaderUtilizationStats()
        stats.record_commit(self._subdag(2, leader=0))
        stats.record_commit(self._subdag(4, leader=0))
        stats.record_commit(self._subdag(6, leader=1))
        assert stats.commits_per_leader() == {0: 2, 1: 1}

    def test_skipped_rounds_per_leader(self):
        stats = LeaderUtilizationStats()
        stats.record_commit(self._subdag(4, leader=1))
        stats.finalize_skips(12, leader_of=lambda round_number: round_number % 3)
        assert stats.skipped_rounds == {2: 2, 6: 0, 8: 2, 10: 1, 12: 0}
        assert stats.skipped_rounds_per_leader() == {2: 2, 0: 2, 1: 1}

    def test_no_skip_is_recorded_past_the_highest_committed_round(self):
        stats = LeaderUtilizationStats()
        stats.record_commit(self._subdag(2, leader=0))
        stats.finalize_skips(5, leader_of=lambda round_number: 3)
        assert stats.skipped_rounds == {4: 3}

    def test_no_commits(self):
        stats = LeaderUtilizationStats()
        stats.finalize_skips(0, leader_of=lambda round_number: 0)
        assert len(stats.committed_rounds) == stats.skips == 0


class TestPerformanceReport:
    def _report(self, **overrides):
        values = dict(
            system="hammerhead",
            committee_size=10,
            faults=3,
            input_load_tps=1000.0,
            duration=60.0,
            throughput_tps=950.0,
            avg_latency_s=1.8,
            p50_latency_s=1.7,
            p95_latency_s=2.4,
            stdev_latency_s=0.3,
            committed_transactions=57000,
            submitted_transactions=60000,
            commits=80,
            skipped_anchor_rounds=5,
            leader_timeouts=12,
            schedule_changes=7,
        )
        values.update(overrides)
        return PerformanceReport(**values)

    def test_as_dict_includes_extra(self):
        report = self._report(extra={"events_fired": 123.0})
        assert report.as_dict()["events_fired"] == 123.0

    def test_format_table_contains_all_rows(self):
        reports = [self._report(system="bullshark"), self._report(system="hammerhead")]
        table = format_table(reports, title="Figure 2")
        assert "Figure 2" in table
        assert "bullshark" in table
        assert "hammerhead" in table
        assert table.count("\n") >= 4

    def test_format_table_empty(self):
        table = format_table([])
        assert "System" in table
