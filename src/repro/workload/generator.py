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
per-target schedule built once per client set.  Whenever a pool is about
to be read, what has arrived at a target opens or extends a window of its
pool on the target's column (``TransactionPool``); no row is copied until
a block is taken.  Clients of one rate take turns at a target, so a
schedule is laid out rather than sorted: their rows interleave by
extended-slice assignment, and any other client's rows are spliced in
where ``bisect`` puts them.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import cmp_to_key
from itertools import compress, count, islice, repeat
from operator import eq, lt, sub
from typing import TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.network.simulator import Simulator
from repro.types import SimTime
from repro.workload.transactions import Transaction, TransactionPool

if TYPE_CHECKING:
    from repro.node.validator import ValidatorNode

# The paper: "each benchmark client submits at most 350 tx/s".
MAX_RATE_PER_CLIENT = 350.0

_NEVER: SimTime = float("-inf")


@dataclasses.dataclass(slots=True, eq=False)
class _Column:
    """The arrivals at one target, earliest first."""

    target: Any
    # The target's pool; ``None`` for a target that takes rows one by one.
    pool: Optional[TransactionPool]
    arrivals: array  # 'd'
    submitted_at: array  # 'd'
    clients: array  # 'q'
    first_id: int  # row ``i`` carries transaction id ``first_id + i``
    position: int = 0  # the rows before it have been delivered
    next_due: SimTime = float("inf")  # the arrival at ``position``, ``inf`` past the end


class ClientArrivals:
    """Every client of one simulator, merged: the simulator's lazy source.

    A client's arrivals are a closed-form, RNG-free schedule —
    ``first_time + index * interval + submission_delay``, targets taken
    round-robin — and a transaction pool is observable only where a
    validator reads it, so arrivals are not heap events.  One client's
    arrivals at one target are an arithmetic progression of its indices;
    a target's column is the progressions of all its clients, laid out
    once (:func:`_append_merged`: interleaved and spliced, not sorted),
    and :meth:`settle`, which the simulator calls before every pool read
    and when a run ends, passes over a column with nothing due on one
    comparison, delivers the slice one ``bisect`` finds from any other
    into its target's pool as a window, and drops a column's prefix
    before its oldest pooled row once that is more than half the column.
    The columns are rebuilt, from the arrivals still undelivered, only
    when a client starts or is retargeted.

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
        """Have the next settle with something due rebuild the columns.

        A pool window may keep an old column, so every row no pool holds
        is cut off it here: the undelivered ones are laid out again by
        the rebuild.
        """
        if self._columns is not None:
            self._next_due = min((column.next_due for column in self._columns), default=float("inf"))
            for column in self._columns:
                oldest = None if column.pool is None else column.pool.oldest(column)
                low = column.position if oldest is None else oldest - column.first_id
                for cells in (column.arrivals, column.submitted_at, column.clients):
                    del cells[column.position:], cells[:low]
                column.first_id += low
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
        # A run to idle asks for everything: every finite arrival.
        bound = horizon if horizon < float("inf") else sys.float_info.max
        for column in columns:
            if column.next_due > bound:
                continue
            arrivals = column.arrivals
            start = column.position
            end = bisect_right(arrivals, bound, start)
            column.position = end
            column.next_due = arrivals[end] if end < len(arrivals) else float("inf")
            if arrivals[end - 1] > last:
                last = arrivals[end - 1]
            target = column.target
            pool = column.pool
            first_id = column.first_id
            if pool is None:
                for transaction in map(
                    Transaction,
                    range(first_id + start, first_id + end),
                    column.clients[start:end],
                    column.submitted_at[start:end],
                    repeat(target.id),
                ):
                    target.submit_transaction(transaction)
            elif not target.crashed:
                # Rows that arrive at a crashed validator are not pooled.
                pool.add(column, first_id + start, first_id + end)
            if 2 * end > len(arrivals):
                # The delivered prefix is most of the column: drop what
                # no pool holds of it.  A drop moves fewer rows than were
                # delivered since the last one, so the cost stays
                # proportional to deliveries.
                oldest = None if pool is None else pool.oldest(column)
                keep = end if oldest is None else min(end, oldest - first_id)
                if 2 * keep > len(arrivals):
                    del arrivals[:keep], column.submitted_at[:keep], column.clients[:keep]
                    column.first_id += keep
                    column.position -= keep
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
        """The column of ``parts``' arrivals, merged one slice at a time.

        Each part is in arrival order already.  A slice takes from every
        part the rows arriving no later than the earliest of the parts'
        next ``_SLICE_ROWS``-th arrivals, so equal arrivals never straddle
        two slices and the slices, each merged, are the column one merge
        would give; only a slice's rows are ever boxed.
        """
        pool = getattr(target, "transaction_pool", None)
        column = _Column(target, pool, array("d"), array("d"), array("q"), self._next_id)
        self._next_id += sum(len(indices) for _, indices in parts)
        starts = [0] * len(parts)
        while True:
            ends = [
                generator._arrival(indices[min(start + _SLICE_ROWS, len(indices)) - 1])
                for (generator, indices), start in zip(parts, starts)
                if start < len(indices)
            ]
            if not ends:
                column.next_due = column.arrivals[0]
                return column
            bound = min(ends)
            rows = []
            for position, (generator, indices) in enumerate(parts):
                stop = bisect_right(indices, bound, starts[position], key=generator._arrival)
                rows.append((generator, indices[starts[position]:stop]))
                starts[position] = stop
            _append_merged(column, rows)


# Rows a slice of a column takes from each of its parts, at most.
_SLICE_ROWS = 512


class _Part(NamedTuple):
    """The rows of one client's progression that one slice takes."""

    generator: LoadGenerator
    indices: range
    submitted_at: List[SimTime]
    arrivals: List[SimTime]


# Three parallel columns in delivery order: arrivals, submission instants
# (lists, to be searched and compared) and clients (an ``array('q')``).
_Run = Tuple[List[SimTime], List[SimTime], array]


def _append_merged(column: _Column, indices_of: List[Tuple[LoadGenerator, range]]) -> None:
    """Append the rows of ``indices_of`` to ``column`` in delivery order.

    Clients that share an interval, a submission delay and a target
    cycle take turns at a target, so their parts are laid into one run
    by extended-slice assignment, earliest first; each other part is a
    run of its own.  The runs are spliced into the longest where
    ``bisect`` puts their rows.  A run that is not strictly increasing,
    or a splice that meets an equal arrival, marks the slice tied, and
    only the rows on a shared instant are then put in the order
    :func:`_compare` gives, start() order where it gives none.
    """
    indices_of = [(generator, indices) for generator, indices in indices_of if indices]
    parts: List[_Part] = []
    groups: Dict[Tuple[SimTime, SimTime, int], List[_Part]] = {}
    for (generator, indices), products in zip(indices_of, _products(indices_of)):
        first_time, interval, delay = generator._parameters()
        submitted_at = [first_time + product for product in products]
        part = _Part(generator, indices, submitted_at, [time + delay for time in submitted_at])
        parts.append(part)
        groups.setdefault((interval, delay, indices.step), []).append(part)
    runs: List[_Run] = []
    tied = False
    for group in groups.values():
        rotation = _rotation(group)
        if len(group) > 1 and (rotation is None or not rotation[1]):
            # Not a strict rotation: each part is a run of its own.
            rotations = [_rotation([part]) for part in group]
        else:
            rotations = [rotation]
        for run, strict in rotations:
            runs.append(run)
            tied = tied or not strict
    runs.sort(key=lambda run: len(run[0]), reverse=True)
    merged = runs[0]
    for run in runs[1:]:
        merged, equal = _splice(merged, run)
        tied = tied or equal
    arrivals, submitted_at, clients = merged
    if tied:
        _order_ties(arrivals, submitted_at, clients, parts)
    column.arrivals.fromlist(arrivals)
    column.submitted_at.fromlist(submitted_at)
    column.clients += clients


def _products(indices_of: List[Tuple[LoadGenerator, range]]) -> List[List[SimTime]]:
    """``index * interval`` for each row of each part, one list per part.

    Clients with one rate and one target cycle run through the same
    indices at a target, so each product is computed once for all of
    them and a part takes its slice of the list.
    """
    keys = [(generator._interval, indices.step, indices.start % indices.step) for generator, indices in indices_of]
    spans: Dict[Tuple[SimTime, int, int], Tuple[int, int]] = {}
    for key, (_, indices) in zip(keys, indices_of):
        low, high = spans.get(key, (indices[0], indices[-1]))
        spans[key] = (min(low, indices[0]), max(high, indices[-1]))
    products = {
        key: [index * key[0] for index in range(low, high + 1, key[1])] for key, (low, high) in spans.items()
    }
    sliced = []
    for key, (_, indices) in zip(keys, indices_of):
        offset = (indices[0] - spans[key][0]) // indices.step
        sliced.append(products[key][offset:offset + len(indices)])
    return sliced


def _rotation(parts: List[_Part]) -> Optional[Tuple[_Run, bool]]:
    """``parts`` taken in turn, earliest first, and whether their arrivals
    then strictly increase; ``None`` when their lengths cannot take turns."""
    parts = sorted(parts, key=lambda part: part.arrivals[0])
    total = sum(len(part.arrivals) for part in parts)
    turns = len(parts)
    if any(len(part.arrivals) != len(range(turn, total, turns)) for turn, part in enumerate(parts)):
        return None
    if turns == 1:
        arrivals, submitted_at = parts[0].arrivals, parts[0].submitted_at
    else:
        arrivals = [0.0] * total
        submitted_at = [0.0] * total
        for turn, part in enumerate(parts):
            arrivals[turn::turns] = part.arrivals
            submitted_at[turn::turns] = part.submitted_at
    clients = array("q", [part.generator.client_id for part in parts]) * len(parts[0].arrivals)
    del clients[total:]
    return (arrivals, submitted_at, clients), all(map(lt, arrivals, islice(arrivals, 1, None)))


def _splice(into: _Run, run: _Run) -> Tuple[_Run, bool]:
    """The rows of ``into`` and ``run`` in arrival order, and whether an
    arrival of ``run`` equals one of ``into``.

    Each row of ``run`` goes after the rows of ``into`` arriving no later
    (``bisect_right``); the rows of ``into`` between two of them are
    copied as one slice.
    """
    into_arrivals, into_submitted_at, into_clients = into
    run_arrivals, run_submitted_at, run_clients = run
    positions = list(map(bisect_right, repeat(into_arrivals), run_arrivals))
    # An equal arrival sits just before the row's position; position 0
    # reads the last row of ``into``, later than the row.
    equal = any(map(eq, run_arrivals, map(into_arrivals.__getitem__, map(sub, positions, repeat(1)))))
    spliced_arrivals: List[SimTime] = []
    spliced_submitted_at: List[SimTime] = []
    spliced_clients = array("q")
    previous = 0
    for row, position in enumerate(positions):
        spliced_arrivals += into_arrivals[previous:position]
        spliced_arrivals.append(run_arrivals[row])
        spliced_submitted_at += into_submitted_at[previous:position]
        spliced_submitted_at.append(run_submitted_at[row])
        spliced_clients += into_clients[previous:position]
        spliced_clients.append(run_clients[row])
        previous = position
    spliced_arrivals += into_arrivals[previous:]
    spliced_submitted_at += into_submitted_at[previous:]
    spliced_clients += into_clients[previous:]
    return (spliced_arrivals, spliced_submitted_at, spliced_clients), equal


def _order_ties(arrivals: List[SimTime], submitted_at: List[SimTime], clients: array, parts: List[_Part]) -> None:
    """Put the rows of each shared instant of ``arrivals`` in delivery order.

    The rows on one instant are found in ``parts`` (in start() order) by
    ``bisect`` and sorted stably by :func:`_compare`; no other row is read.
    """
    delivery = cmp_to_key(lambda left, right: _compare(left[0], left[1], right[0], right[1]))
    end = 0
    for low in compress(count(), map(eq, arrivals, islice(arrivals, 1, None))):
        if low < end:
            continue
        instant = arrivals[low]
        end = bisect_right(arrivals, instant, low)
        rows = sorted(
            (
                (part.generator, part.indices[row], part.submitted_at[row])
                for part in parts
                for row in range(bisect_left(part.arrivals, instant), bisect_right(part.arrivals, instant))
            ),
            key=delivery,
        )
        submitted_at[low:end] = [row[2] for row in rows]
        clients[low:end] = array("q", [row[0].client_id for row in rows])


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
