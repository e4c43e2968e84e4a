"""End-to-end transaction metrics.

Latency is measured the way the paper defines it: "the time elapsed from
when the client submits the transaction to when it receives confirmation
of the transaction's finality".  A transaction carries its submission
time; for every block an observer validator orders, the collector claims
each maximal run of consecutive ids as one range (a block taken from one
pool window is one run, a block cut across a crash gap one per window),
settles id by id only a run that overlaps ids already committed, counts
a transaction the first time only, and makes the finality times in one
pass over the execution queue's running sum with the client
confirmation delay (one network one-way trip back) added, and the
latencies in one more.  Both are kept
as one ``array('d')`` per block; a block's finality times never
decrease, so throughput reads each block with one comparison or one
``bisect``.

Throughput is "the number of distinct transactions over the entire
duration of the run", counted over a measurement window that excludes a
configurable warm-up prefix so that the DAG start-up transient does not
bias results.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import compress, count, islice, repeat
from operator import ne, sub
from typing import Any, List, Optional, Sequence, Union

from repro.consensus.committed import OrderedVertex
from repro.metrics.execution import ExecutionModel
from repro.metrics.latency import LatencyStats
from repro.node.validator import ValidatorNode
from repro.types import SimTime
from repro.workload.transactions import Transaction, transaction_columns


def _id_runs(ids: Union[range, Sequence[int]]) -> Sequence[range]:
    """``ids`` as its maximal runs of consecutive ids, in order."""
    if type(ids) is range:
        return (ids,)
    # Positions where an id is not its predecessor plus one.
    breaks = list(compress(count(1), map(ne, map(sub, islice(ids, 1, None), ids), repeat(1))))
    bounds = [0, *breaks, len(ids)]
    return [range(ids[low], ids[high - 1] + 1) for low, high in zip(bounds, bounds[1:])]


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
        # period, one nondecreasing array per block; throughput is
        # derived from these at reporting time.
        self.finality_blocks: List[array] = []
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
        reduced to an id column and a submission-time column, and its ids
        are claimed one run at a time; the finality times are then one
        pass (the execution queue's running sum plus the confirmation
        delay) and the latencies one more.
        """
        ids, submitted_at = transaction_columns(record.vertex.block)
        size = len(ids)
        if not size:
            return
        fresh: Optional[List[bool]] = None
        position = 0
        for run in _id_runs(ids):
            if not self._claim(run.start, run.stop):
                # Not a run of fresh ids: settle it id by id.
                if fresh is None:
                    fresh = [True] * size
                for index, tx_id in enumerate(run, position):
                    fresh[index] = self._claim(tx_id, tx_id + 1)
            position += len(run)
        if fresh is not None:
            submitted_at = list(compress(submitted_at, fresh))
            self.duplicate_commits += size - len(submitted_at)
            size = len(submitted_at)
            if not size:
                return
        if self.execution is None:
            finality_times = [record.ordered_at + self.confirmation_delay] * size
        else:
            finality_times = self.execution.execute_many(size, record.ordered_at, self.confirmation_delay)
        warmup = self.warmup
        if min(submitted_at) < warmup:
            measured = [submit_time >= warmup for submit_time in submitted_at]
            finality_times = list(compress(finality_times, measured))
            submitted_at = list(compress(submitted_at, measured))
            if not finality_times:
                return
        self.finality_blocks.append(array("d", finality_times))
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
        finalized = 0
        for block in self.finality_blocks:
            if block[-1] <= duration:
                finalized += len(block)
            elif block[0] <= duration:
                finalized += bisect_right(block, duration)
        return finalized / window
