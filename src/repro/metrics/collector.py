"""End-to-end transaction metrics.

Latency is measured the way the paper defines it: "the time elapsed from
when the client submits the transaction to when it receives confirmation
of the transaction's finality".  The collector records the submission time
of every transaction and the first time an observer validator orders it;
the reported latency adds the client confirmation delay (one network
one-way trip back to the client).

Throughput is "the number of distinct transactions over the entire
duration of the run", counted over a measurement window that excludes a
configurable warm-up prefix so that the DAG start-up transient does not
bias results.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.consensus.committed import OrderedVertex
from repro.metrics.execution import ExecutionModel
from repro.metrics.latency import LatencyStats
from repro.node.validator import ValidatorNode
from repro.types import SimTime
from repro.workload.transactions import Transaction


class MetricsCollector:
    """Tracks per-transaction submission and commit times."""

    def __init__(
        self,
        confirmation_delay: SimTime = 0.040,
        warmup: SimTime = 0.0,
        execution: Optional[ExecutionModel] = None,
    ) -> None:
        self.confirmation_delay = confirmation_delay
        self.warmup = warmup
        self.execution = execution
        self._submit_times: Dict[int, SimTime] = {}
        self._commit_times: Dict[int, SimTime] = {}
        # Finality times of the transactions submitted after the warm-up
        # period; throughput is derived from these at reporting time.
        self._finality_times: List[SimTime] = []
        self.latency = LatencyStats()
        self.submitted = 0
        self.committed = 0
        self.duplicate_commits = 0
        self._observer: Optional[ValidatorNode] = None

    # -- wiring -----------------------------------------------------------------

    def attach_observer(self, node: ValidatorNode) -> None:
        """Measure commit times at ``node`` (must stay honest and alive)."""
        self._observer = node
        node.on_ordered(self.on_vertex_ordered)

    def on_transaction_submitted(self, transaction: Transaction) -> None:
        """Record a submission (wired as the load generator callback)."""
        self.submitted += 1
        self._submit_times[transaction.tx_id] = transaction.submitted_at

    def on_vertex_ordered(self, record: OrderedVertex) -> None:
        """Record commit times for the transactions of an ordered vertex.

        Only a transaction's first commit counts, and it releases the
        transaction's ``_submit_times`` entry: a later ordering of the
        same transaction is recognised by ``_commit_times`` alone.
        """
        # Local bindings: this loop runs once per committed transaction.
        commit_times = self._commit_times
        release = self._submit_times.pop
        execution = self.execution
        confirmation_delay = self.confirmation_delay
        warmup = self.warmup
        ordered_at = record.ordered_at
        service_time = execution.service_time if execution is not None else 0.0
        busy_until = execution._busy_until if execution is not None else 0.0
        record_finality = self._finality_times.append
        latencies: List[SimTime] = []
        executed = 0
        for transaction in record.vertex.block:
            if not isinstance(transaction, Transaction):
                continue
            tx_id = transaction.tx_id
            if tx_id in commit_times:
                self.duplicate_commits += 1
                continue
            submit_time = release(tx_id, None)
            if submit_time is None:
                continue
            commit_time = ordered_at
            if execution is not None:
                # Inlined ExecutionModel.execute (one call per committed
                # transaction): FIFO service at a bounded rate.
                if busy_until > commit_time:
                    commit_time = busy_until
                commit_time += service_time
                busy_until = commit_time
                executed += 1
            finality_time = commit_time + confirmation_delay
            commit_times[tx_id] = finality_time
            if submit_time < warmup:
                continue
            record_finality(finality_time)
            latencies.append(finality_time - submit_time)
        if execution is not None:
            execution._busy_until = busy_until
            execution.executed += executed
        self.committed += len(latencies)
        self.latency.extend(latencies)

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
        finalized = sum(1 for finality in self._finality_times if finality <= duration)
        return finalized / window

    def commit_ratio(self) -> float:
        """Fraction of submitted transactions that committed."""
        if self.submitted == 0:
            return 0.0
        return len(self._commit_times) / self.submitted

    def average_latency(self) -> float:
        return self.latency.average()

    def p50_latency(self) -> float:
        return self.latency.p50()

    def p95_latency(self) -> float:
        return self.latency.p95()

    def summary(self, duration: SimTime) -> Dict[str, float]:
        summary = self.latency.summary()
        summary.update(
            {
                "submitted": float(self.submitted),
                "committed": float(self.committed),
                "throughput_tps": self.throughput(duration),
                "commit_ratio": self.commit_ratio(),
            }
        )
        return summary
