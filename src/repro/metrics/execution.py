"""A simple execution-pipeline model.

Consensus ordering is only part of a transaction's life: every validator
must also execute the ordered transactions (and in Sui, build checkpoints
and certify effects) before the client receives finality.  That pipeline
is the component whose capacity caps the end-to-end throughput of the
paper's testbed at a few thousand transactions per second — a ceiling that
does not depend on how many validators are alive, which is why HammerHead
shows *no* throughput degradation under crash faults (claim C3) even
though a third of the committee is down.

:class:`ExecutionModel` reproduces this with a single-server queue: ordered
transactions are executed FIFO at ``capacity_tps``; the finality time of a
transaction is the time its execution completes.  Below the ceiling the
queue is empty and execution adds only the per-transaction service time;
as the committed rate approaches the ceiling the queue (and therefore
latency) grows, producing the characteristic knee of the latency/throughput
curves.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from typing import List

from repro.errors import ConfigurationError
from repro.types import SimTime


class ExecutionModel:
    """FIFO execution of ordered transactions at a bounded rate."""

    def __init__(self, capacity_tps: float) -> None:
        if capacity_tps <= 0:
            raise ConfigurationError("execution capacity must be positive")
        self.capacity_tps = capacity_tps
        self.service_time = 1.0 / capacity_tps
        self._busy_until: SimTime = 0.0
        self.executed = 0

    def execute(self, ordered_at: SimTime) -> SimTime:
        """Execute one transaction ordered at ``ordered_at``; returns its completion (finality) time."""
        return self.execute_many(1, ordered_at)[0]

    def execute_many(self, count: int, ordered_at: SimTime) -> List[SimTime]:
        """Execute ``count`` (at least one) transactions ordered at ``ordered_at``.

        Each starts when the one before it finishes, the first no earlier
        than the ordering.  Returns the completion times.
        """
        start = max(self._busy_until, ordered_at)
        finish_times = list(accumulate(repeat(self.service_time, count), initial=start))
        del finish_times[0]
        self._busy_until = finish_times[-1]
        self.executed += count
        return finish_times

    def backlog_delay(self, at_time: SimTime) -> SimTime:
        """Current queueing delay an arriving transaction would experience."""
        return max(0.0, self._busy_until - at_time)
