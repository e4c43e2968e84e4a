"""Fixed-rate load generators.

Each :class:`LoadGenerator` models one geo-distributed benchmark client:
it submits transactions at a constant rate to a set of target validators
(round-robin), adding the client-to-validator network delay before the
transaction enters the validator's pool.  Mirroring the paper, a single
client never submits more than ``MAX_RATE_PER_CLIENT`` transactions per
second; :func:`spawn_load` creates as many clients as needed for a target
system load.

No client costs the simulator an event and no transaction an object: all
clients of a simulator are merged in one :class:`ClientArrivals`, a
per-target schedule built once per client set, which hands a target what
has arrived as one ``TransactionBatch`` whenever a pool is about to be read.
"""

from __future__ import annotations

import dataclasses
from array import array
from bisect import bisect_right
from functools import cmp_to_key
from itertools import groupby, repeat
from operator import eq
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.network.simulator import Simulator
from repro.types import SimTime
from repro.workload.transactions import TransactionBatch, as_column

if TYPE_CHECKING:
    from repro.node.validator import ValidatorNode

# The paper: "each benchmark client submits at most 350 tx/s".
MAX_RATE_PER_CLIENT = 350.0

_NEVER: SimTime = float("-inf")


@dataclasses.dataclass(slots=True)
class _Column:
    """The arrivals at one target, earliest first."""

    target: Any
    arrivals: array  # 'd'; the other two as in a ``TransactionBatch``
    submitted_at: array
    clients: array
    first_id: int  # row ``i`` carries transaction id ``first_id + i``
    position: int = 0  # the rows before it have been delivered


class ClientArrivals:
    """Every client of one simulator, merged: the simulator's lazy source.

    A client's arrivals are a closed-form, RNG-free schedule —
    ``first_time + index * interval + submission_delay``, targets taken
    round-robin — and a transaction pool is observable only where a
    validator reads it, so arrivals are not heap events.  One client's
    arrivals at one target are an arithmetic progression of its indices;
    a target's column is the progressions of all its clients, merged
    once, and :meth:`settle`, which the simulator calls before every
    pool read and when a run ends, delivers the slice one ``bisect``
    finds and drops a column's delivered prefix once it is more than
    half the column.  The columns are rebuilt, from the arrivals still
    undelivered, only when a client starts or is retargeted.

    Rows are in the order the event queue would have fired one event per
    transaction: earliest first, simultaneous ones as :func:`_compare`
    says.  Transaction ids are allocated here, from 0 and contiguous
    along a column: a function of the run, not of the process.
    """

    def __init__(self) -> None:
        # Every client, in start() order.
        self._generators: List[LoadGenerator] = []
        # ``None``: to be built by the first settle with something due,
        # which is none before ``_next_due``.
        self._columns: Optional[List[_Column]] = None
        self._next_due: SimTime = float("inf")
        # Every arrival up to here of a client in the columns is delivered.
        self.horizon: SimTime = _NEVER
        self._next_id = 0

    @classmethod
    def of(cls, simulator: Simulator) -> ClientArrivals:
        """The arrivals merged into ``simulator``, registered on first use."""
        for source in simulator.lazy_sources:
            if isinstance(source, cls):
                return source
        arrivals = cls()
        simulator.lazy_sources.append(arrivals)
        return arrivals

    def add(self, generator: LoadGenerator, first_arrival: SimTime) -> None:
        self.invalidate()
        self._generators.append(generator)
        self._next_due = min(self._next_due, first_arrival)

    def invalidate(self) -> None:
        """Have the next settle with something due rebuild the columns."""
        if self._columns is not None:
            heads = (c.arrivals[c.position] for c in self._columns if c.position < len(c.arrivals))
            self._next_due = min(heads, default=float("inf"))
            self._columns = None

    def settle(self, horizon: SimTime) -> SimTime:
        """Deliver every transaction with ``arrival <= horizon``.

        The bound is inclusive: a read at ``t`` sees exactly the
        transactions with ``submitted_at + submission_delay <= t``.
        Returns the last arrival delivered, ``-inf`` when none was due.
        """
        columns = self._columns
        if columns is None:
            if horizon < self._next_due:
                return _NEVER
            columns = self._columns = self._build()
        last = _NEVER
        for column in columns:
            arrivals = column.arrivals
            start = column.position
            end = bisect_right(arrivals, horizon, start)
            if end == start:
                continue
            column.position = end
            if arrivals[end - 1] > last:
                last = arrivals[end - 1]
            target = column.target
            batch = TransactionBatch(
                target.id,
                range(column.first_id + start, column.first_id + end),
                column.clients[start:end],
                column.submitted_at[start:end],
            )
            if hasattr(target, "submit_transactions"):
                target.submit_transactions(batch)
            else:
                for transaction in batch:
                    target.submit_transaction(transaction)
            if 2 * end > len(arrivals):
                # The delivered prefix is most of the column: drop it.
                # A drop moves fewer rows than were delivered since the
                # last one, so the cost stays proportional to deliveries.
                del arrivals[:end], column.submitted_at[:end], column.clients[:end]
                column.first_id += end
                column.position = 0
        # A run to idle asks for everything and reaches the last arrival.
        self.horizon = max(self.horizon, horizon if horizon < float("inf") else last)
        return last

    def _build(self) -> List[_Column]:
        """One column per target, from every client's undelivered arrivals."""
        parts: List[Tuple[Any, LoadGenerator, range]] = []
        for generator in self._generators:
            following = generator.submitted
            generator._arrivals = self
            cycle = generator.targets
            for offset, target in enumerate(cycle):
                # The indices from ``following`` on that round-robin here.
                behind = (generator._cycle_start + offset - following) % len(cycle)
                indices = range(following + behind, generator._count, len(cycle))
                if indices:
                    parts.append((target, generator, indices))
        # Columns are kept in the order their targets are first met.
        targets: List[Any] = []
        for target, _, _ in parts:
            if not any(known is target for known in targets):
                targets.append(target)
        return [self._merge(target, [part[1:] for part in parts if part[0] is target]) for target in targets]

    def _merge(self, target: Any, parts: List[Tuple[LoadGenerator, range]]) -> _Column:
        """The column of ``parts``' arrivals, sorted one slice at a time.

        Each part is in arrival order already.  A slice takes from every
        part the rows arriving no later than the earliest of the parts'
        next ``_SLICE_ROWS``-th arrivals, so equal arrivals never straddle
        two slices and the slices, each sorted, are the column one sort
        would give; only a slice's rows are ever boxed.
        """
        column = _Column(target, array("d"), array("d"), array("q"), self._next_id)
        self._next_id += sum(len(indices) for _, indices in parts)
        starts = [0] * len(parts)
        while True:
            ends = [
                generator._arrival(indices[min(start + _SLICE_ROWS, len(indices)) - 1])
                for (generator, indices), start in zip(parts, starts)
                if start < len(indices)
            ]
            if not ends:
                return column
            bound = min(ends)
            rows = []
            for position, (generator, indices) in enumerate(parts):
                stop = bisect_right(indices, bound, starts[position], key=generator._arrival)
                rows.append((generator, indices[starts[position]:stop]))
                starts[position] = stop
            _append_sorted(column, rows)


# Rows a slice of a column takes from each of its parts, at most.
_SLICE_ROWS = 512


def _append_sorted(column: _Column, parts: List[Tuple[LoadGenerator, range]]) -> None:
    """Append the rows of ``parts`` to ``column`` in delivery order."""
    submitted_at, arrivals, clients = [], [], []
    for generator, indices in parts:
        first_time, interval, delay = generator._parameters()
        times = [first_time + index * interval for index in indices]
        submitted_at += times
        arrivals += [time + delay for time in times]
        clients += repeat(generator.client_id, len(times))
    order = sorted(range(len(arrivals)), key=arrivals.__getitem__)
    merged = sorted(arrivals)
    if any(map(eq, merged, merged[1:])):
        _order_ties(order, merged, parts)
    column.arrivals.extend(as_column("d", merged))
    column.submitted_at.extend(as_column("d", map(submitted_at.__getitem__, order)))
    column.clients.extend(as_column("q", map(clients.__getitem__, order)))


def _order_ties(order: List[int], merged: List[SimTime], parts: List[Tuple[LoadGenerator, range]]) -> None:
    """Put the rows of ``order`` (indices into the concatenation of
    ``parts``) whose arrivals in ``merged`` are equal in delivery order."""
    rows = [(generator, index) for generator, indices in parts for index in indices]
    # Stable: rows that compare equal stay in start() order.
    delivery = cmp_to_key(lambda left, right: _compare(*rows[left], *rows[right]))
    low = 0
    for _, run in groupby(merged):
        high = low + len(list(run))
        if high - low > 1:
            order[low:high] = sorted(order[low:high], key=delivery)
        low = high


def _compare(first: LoadGenerator, i: int, second: LoadGenerator, j: int) -> int:
    """Negative when arrival ``i`` of ``first`` is delivered before arrival
    ``j`` of ``second`` on the same instant, zero when start() order decides.

    The event queue fires simultaneous events in the order they were
    scheduled.  An arrival is scheduled when its predecessor is
    delivered, so the earlier predecessor decides, and simultaneous
    predecessors defer to theirs; a client's first arrival is scheduled
    by ``start()``, after every delivery due by that instant.
    """
    if i == j and first._parameters() == second._parameters():
        # Every pair of predecessors is simultaneous too.
        i = j = 0
    while True:
        earlier, later = first._scheduled_at(i), second._scheduled_at(j)
        if earlier != later:
            return -1 if earlier < later else 1
        if not (i and j):
            return (not i) - (not j)
        i -= 1
        j -= 1


class LoadGenerator:
    """One benchmark client submitting at a fixed rate."""

    def __init__(
        self,
        client_id: int,
        simulator: Simulator,
        targets: Sequence[ValidatorNode],
        rate: float,
        duration: SimTime,
        start_time: SimTime = 0.0,
        submission_delay: SimTime = 0.040,
    ) -> None:
        if rate <= 0:
            raise WorkloadError("the submission rate must be positive")
        if rate > MAX_RATE_PER_CLIENT + 1e-9:
            raise WorkloadError(
                f"a single client submits at most {MAX_RATE_PER_CLIENT} tx/s; "
                "use spawn_load() to create several clients"
            )
        if not targets:
            raise WorkloadError("a load generator needs at least one target validator")
        if duration <= 0:
            raise WorkloadError("the load duration must be positive")
        self.client_id = client_id
        self.simulator = simulator
        self.targets = list(targets)
        self.rate = rate
        self.duration = duration
        self.start_time = start_time
        self.submission_delay = submission_delay
        # Index of the arrival that went (or goes) to ``targets[0]``.
        self._cycle_start = 0
        # Schedule parameters and the instant of the call, set by start().
        self._interval: SimTime = 0.0
        self._first_time: SimTime = start_time
        self._count = 0
        self._started_at: SimTime = 0.0
        # The merged arrivals, once their columns were built with this client in.
        self._arrivals: Optional[ClientArrivals] = None

    def _arrival(self, index: int) -> SimTime:
        return self._first_time + index * self._interval + self.submission_delay

    def _scheduled_at(self, index: int) -> SimTime:
        """When the event of arrival ``index`` would have been scheduled."""
        return self._arrival(index - 1) if index else self._started_at

    def _parameters(self) -> Tuple[SimTime, SimTime, SimTime]:
        return (self._first_time, self._interval, self.submission_delay)

    @property
    def submitted(self) -> int:
        """Transactions delivered so far: the index of the next one in the schedule."""
        if self._arrivals is None:
            return 0
        return bisect_right(range(self._count), self._arrivals.horizon, key=self._arrival)

    def start(self) -> None:
        """Put the client's schedule into the simulator's merged arrivals.

        Submission instants are computed by index rather than by
        accumulation so that floating-point drift never adds or drops a
        transaction.  A transaction whose arrival falls after the end of
        the run is never created: it counts as never submitted.
        """
        interval = 1.0 / self.rate
        # Stagger clients slightly so submissions do not all land on the
        # same instant when many clients are created.
        offset = (self.client_id % 17) * interval / 17.0
        self._interval = interval
        self._first_time = self.start_time + offset
        self._count = int(round(self.rate * self.duration))
        if self._count > 0:
            # What is due by now is delivered first, so the new client
            # takes its place after them, as an event would.
            self.simulator.settle()
            self._started_at = self.simulator.now
            ClientArrivals.of(self.simulator).add(self, self._arrival(0))

    def set_targets(self, targets: Sequence[ValidatorNode]) -> None:
        """Fail the client over to a new target set (partition failover).

        Arrivals up to the current instant (inclusive) still go to the
        old set.  The round-robin cycle restarts at the head of the new
        set; no RNG is involved, so retargeting keeps runs deterministic.
        """
        if not targets:
            raise WorkloadError("a load generator needs at least one target validator")
        self.simulator.settle()
        self.targets = list(targets)
        self._cycle_start = self.submitted
        ClientArrivals.of(self.simulator).invalidate()


def spawn_load(
    simulator: Simulator,
    targets: Sequence[ValidatorNode],
    total_rate: float,
    duration: SimTime,
    start_time: SimTime = 0.0,
    submission_delay: SimTime = 0.040,
    first_client_id: int = 0,
) -> List[LoadGenerator]:
    """Create and start enough clients to reach ``total_rate`` tx/s.

    Clients are added in units of at most 350 tx/s, exactly like the
    paper's deployment selects the number of load generators.
    ``first_client_id`` offsets the client ids, so phased workloads (see
    :mod:`repro.workload.phases`) give every phase's clients distinct
    submission stagger offsets.
    """
    if total_rate <= 0:
        raise WorkloadError("the total load must be positive")
    generators: List[LoadGenerator] = []
    remaining = total_rate
    client_index = first_client_id
    while remaining > 1e-9:
        rate = min(MAX_RATE_PER_CLIENT, remaining)
        generator = LoadGenerator(
            client_id=client_index,
            simulator=simulator,
            targets=targets,
            rate=rate,
            duration=duration,
            start_time=start_time,
            submission_delay=submission_delay,
        )
        generator.start()
        generators.append(generator)
        remaining -= rate
        client_index += 1
    return generators
