"""Reference metrics collector: one loop iteration per transaction.

``repro.metrics.collector`` reduces an ordered block to columns and
passes over them with ``itertools``; committed ids are kept as ranges.
This module is what those passes must reproduce, written the slow and
obvious way — the per-transaction loop the collector used to be: a set
of committed ids, ``ExecutionModel.execute`` spelled out once per
transaction, one comparison against the warm-up, one subtraction.

A block is any iterable; only its ``Transaction`` items count, and only
the first time their id is seen.  Imports: the standard library and
``repro.workload.transactions`` only.  Every column there is a ``list``.
"""

from __future__ import annotations

import math

from repro.workload.transactions import Transaction


class ReferenceCollector:
    def __init__(self, confirmation_delay=0.040, warmup=0.0, capacity_tps=None):
        self.confirmation_delay = confirmation_delay
        self.warmup = warmup
        self.service_time = None if capacity_tps is None else 1.0 / capacity_tps
        self.busy_until = 0.0
        self.executed = 0
        self.committed_ids = set()
        self.finality_times = []
        self.latencies = []
        self.committed = 0
        self.duplicate_commits = 0

    def on_block(self, block, ordered_at):
        for transaction in block:
            if not isinstance(transaction, Transaction):
                continue
            if transaction.tx_id in self.committed_ids:
                self.duplicate_commits += 1
                continue
            self.committed_ids.add(transaction.tx_id)
            commit_time = ordered_at
            if self.service_time is not None:
                if self.busy_until > commit_time:
                    commit_time = self.busy_until
                commit_time += self.service_time
                self.busy_until = commit_time
                self.executed += 1
            finality_time = commit_time + self.confirmation_delay
            if transaction.submitted_at < self.warmup:
                continue
            self.finality_times.append(finality_time)
            self.latencies.append(finality_time - transaction.submitted_at)
            self.committed += 1

    def throughput(self, duration):
        window = duration - self.warmup
        if window <= 0:
            return 0.0
        return sum(1 for finality in self.finality_times if finality <= duration) / window

    def summary(self):
        """Latency statistics the slow and obvious way: the mean and a list
        of squared deviations in sample order, percentiles interpolated on
        a sorted list of every sample."""
        if not self.latencies:
            return dict.fromkeys(("avg", "stdev", "p50", "p95"), 0.0)
        ordered = sorted(self.latencies)
        mean = sum(self.latencies) / len(self.latencies)
        squares = [(sample - mean) ** 2 for sample in self.latencies]
        return {
            "avg": mean,
            "stdev": math.sqrt(sum(squares) / (len(squares) - 1)) if len(ordered) > 1 else 0.0,
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
        }


def percentile(ordered, fraction):
    """Linear interpolation between the two bracketing samples, clamped to them."""
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    if lower == position:
        return ordered[lower]
    low, high = ordered[lower], ordered[lower + 1]
    return min(max(low + (position - lower) * (high - low), low), high)
