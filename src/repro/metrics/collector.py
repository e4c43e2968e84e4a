"""End-to-end transaction metrics.

Latency is measured the way the paper defines it: "the time elapsed from
when the client submits the transaction to when it receives confirmation
of the transaction's finality".  A transaction carries its submission
time; the collector passes once over the columns of every block an
observer validator orders, counts a transaction the first time only, and
adds the client confirmation delay (one network one-way trip back).

Throughput is "the number of distinct transactions over the entire
duration of the run", counted over a measurement window that excludes a
configurable warm-up prefix so that the DAG start-up transient does not
bias results.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress, repeat
from operator import add, ge, sub
from typing import Any, List, Optional, Sequence

from repro.consensus.committed import OrderedVertex
from repro.metrics.execution import ExecutionModel
from repro.metrics.latency import Column, LatencyStats
from repro.node.validator import ValidatorNode
from repro.types import SimTime
from repro.workload.transactions import Transaction, as_column, transaction_columns


class MetricsCollector:
    """Tracks commit times, one pass over a block's columns at a time."""

    def __init__(
        self,
        confirmation_delay: SimTime = 0.040,
        warmup: SimTime = 0.0,
        execution: Optional[ExecutionModel] = None,
    ) -> None:
        self.confirmation_delay = confirmation_delay
        self.warmup = warmup
        self.execution = execution
        # The committed transaction ids as disjoint ranges ``[start,
        # stop)`` in ascending order: a client's ids are contiguous per
        # target, so a block is one range, not an entry per transaction.
        self._committed_starts: List[int] = []
        self._committed_stops: List[int] = []
        # Finality times of the transactions submitted after the warm-up
        # period; throughput is derived from these at reporting time.
        self._finality_times = Column()
        self.latency = LatencyStats()
        # Submissions announced one by one; attached clients count their own.
        self._announced = 0
        self._clients: Sequence[Any] = ()
        self.committed = 0
        self.duplicate_commits = 0

    # -- wiring -----------------------------------------------------------------

    def attach_observer(self, node: ValidatorNode) -> None:
        """Measure commit times at ``node`` (must stay honest)."""
        node.on_ordered(self.on_vertex_ordered)

    def attach_clients(self, clients: Sequence[Any]) -> None:
        """Count what ``clients`` deliver (each has a ``submitted`` count) as submitted."""
        self._clients = clients

    def on_transaction_submitted(self, transaction: Transaction) -> None:
        """Count one submission of a client that is not attached."""
        self._announced += 1

    @property
    def submitted(self) -> int:
        return self._announced + sum(client.submitted for client in self._clients)

    def _claim(self, start: int, stop: int) -> bool:
        """Commit the ids ``[start, stop)``; ``False``, and no change, when one already is."""
        starts = self._committed_starts
        stops = self._committed_stops
        at = bisect_right(starts, start)
        if (at and stops[at - 1] > start) or (at < len(starts) and starts[at] < stop):
            return False
        starts.insert(at, start)
        stops.insert(at, stop)
        return True

    def on_vertex_ordered(self, record: OrderedVertex) -> None:
        """Record commit times for the transactions of an ordered vertex.

        Only a transaction's first commit counts.  Any block is first
        reduced to an id column and a submission-time column; execution,
        finality, the warm-up filter and the latencies are then column
        passes.
        """
        ids, submitted_at = transaction_columns(record.vertex.block)
        count = len(ids)
        if not count:
            return
        first, stop = ids[0], ids[-1] + 1
        # The ends first: a run between them holds no id that 64 bits cannot.
        if stop - first != count or ids != as_column("q", range(first, stop)) or not self._claim(first, stop):
            # Not one run of fresh ids: settle it id by id.
            fresh = [self._claim(tx_id, tx_id + 1) for tx_id in ids]
            submitted_at = list(compress(submitted_at, fresh))
            self.duplicate_commits += count - len(submitted_at)
            count = len(submitted_at)
            if not count:
                return
        if self.execution is None:
            finality_times = [record.ordered_at + self.confirmation_delay] * count
        else:
            finish_times = self.execution.execute_many(count, record.ordered_at)
            finality_times = list(map(add, finish_times, repeat(self.confirmation_delay)))
        warmup = self.warmup
        if min(submitted_at) < warmup:
            measured = [submit_time >= warmup for submit_time in submitted_at]
            finality_times = list(compress(finality_times, measured))
            submitted_at = list(compress(submitted_at, measured))
        self._finality_times.extend(finality_times)
        self.committed += len(finality_times)
        self.latency.extend(list(map(sub, finality_times, submitted_at)))

    # -- results ------------------------------------------------------------------

    def throughput(self, duration: SimTime) -> float:
        """Transactions per second that reached finality within the run.

        Transactions whose execution completes (virtually) after the end of
        the run are not counted: a saturated execution pipeline must not
        inflate measured throughput beyond its capacity.
        """
        window = duration - self.warmup
        if window <= 0:
            return 0.0
        finalized = sum(map(ge, repeat(duration), self._finality_times))
        return finalized / window

    def commit_ratio(self) -> float:
        """Fraction of submitted transactions that committed."""
        submitted = self.submitted
        if submitted == 0:
            return 0.0
        return sum(map(sub, self._committed_stops, self._committed_starts)) / submitted
