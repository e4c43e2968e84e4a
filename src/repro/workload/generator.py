"""Fixed-rate load generators.

Each :class:`LoadGenerator` models one geo-distributed benchmark client:
it submits transactions at a constant rate to a set of target validators
(round-robin), adding the client-to-validator network delay before the
transaction enters the validator's pool.  Mirroring the paper, a single
client never submits more than ``MAX_RATE_PER_CLIENT`` transactions per
second; :func:`spawn_load` creates as many clients as needed for a target
system load.

No client costs the simulator an event: all clients of a simulator are
merged in one :class:`ClientArrivals`, which creates and delivers the
transactions that have arrived whenever a pool is about to be read.
"""

from __future__ import annotations

import itertools
from heapq import heappop as _heappop, heappush as _heappush, heapreplace as _heapreplace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.network.simulator import Simulator
from repro.node.validator import ValidatorNode
from repro.types import SimTime
from repro.workload.transactions import Transaction

# The paper: "each benchmark client submits at most 350 tx/s".
MAX_RATE_PER_CLIENT = 350.0

# Callback used to tell the metrics collector about a submission.
SubmitCallback = Callable[[Transaction], None]


# Process-wide transaction id source (module-level: the class-attribute
# lookup per transaction was measurable at peak load).
_next_tx_id = itertools.count()

_NEVER: SimTime = float("-inf")

# ``Transaction(...)`` goes through the NamedTuple's Python-level
# ``__new__`` to fill in the two defaulted fields, which costs as much as
# the rest of one delivery; ``tuple.__new__`` with every field spelled
# out builds the same object.
_tuple_new = tuple.__new__
_KIND = Transaction._field_defaults["kind"]
_PAYLOAD_BYTES = Transaction._field_defaults["payload_bytes"]


class ClientArrivals:
    """Every client of one simulator, merged: the simulator's lazy source.

    A client's arrivals are a closed-form, RNG-free schedule —
    ``first_time + index * interval + submission_delay``, targets taken
    round-robin — and a transaction pool is observable only where a
    validator reads it, so arrivals are not heap events.  They are
    materialised in bulk by :meth:`settle`, which the simulator calls
    before every such read and when a run ends.

    ``_heap`` holds the next arrival of every unfinished client as
    ``(arrival, sequence, generator)``.  It is merged under the event
    queue's own discipline — earliest first, ties by a sequence number
    that a client's first arrival takes at ``start()`` and every later
    one when its predecessor is delivered — so transactions reach pools
    and ``on_submit`` in the order one event per transaction would have
    produced.  A client that has delivered its last arrival leaves the
    heap.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[SimTime, int, "LoadGenerator"]] = []
        self._sequences = itertools.count()

    @classmethod
    def of(cls, simulator: Simulator) -> "ClientArrivals":
        """The arrivals merged into ``simulator``, registered on first use."""
        for source in simulator.lazy_sources:
            if isinstance(source, cls):
                return source
        arrivals = cls()
        simulator.lazy_sources.append(arrivals)
        return arrivals

    def add(self, generator: "LoadGenerator", first_arrival: SimTime) -> None:
        _heappush(self._heap, (first_arrival, next(self._sequences), generator))

    def settle(self, horizon: SimTime) -> SimTime:
        """Deliver every transaction with ``arrival <= horizon``.

        The bound is inclusive: a read at ``t`` sees exactly the
        transactions with ``submitted_at + submission_delay <= t``.
        Returns the last arrival delivered, ``-inf`` when none was due.
        """
        heap = self._heap
        last = _NEVER
        sequences = self._sequences
        while heap:
            entry = heap[0]
            if entry[0] > horizon:
                break
            last = entry[0]
            generator = entry[2]
            index = generator.submitted
            following = index + 1
            generator.submitted = following
            first_time = generator._first_time
            interval = generator._interval
            if following < generator._count:
                _heapreplace(
                    heap,
                    (
                        first_time + following * interval + generator.submission_delay,
                        next(sequences),
                        generator,
                    ),
                )
            else:
                _heappop(heap)
            target = next(generator._target_cycle)
            transaction = _tuple_new(
                Transaction,
                (
                    next(_next_tx_id),
                    generator.client_id,
                    first_time + index * interval,
                    target.id,
                    _KIND,
                    _PAYLOAD_BYTES,
                ),
            )
            on_submit = generator.on_submit
            if on_submit is not None:
                on_submit(transaction)
            target.submit_transaction(transaction)
        return last


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
        on_submit: Optional[SubmitCallback] = None,
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
        self.on_submit = on_submit
        # Transactions delivered so far, which is also the index of the
        # next one in the schedule.
        self.submitted = 0
        self._target_cycle = itertools.cycle(self.targets)
        # Schedule parameters, set by start().
        self._interval: SimTime = 0.0
        self._first_time: SimTime = start_time
        self._count = 0

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
            # takes its sequence number after them, as an event would.
            self.simulator.settle()
            ClientArrivals.of(self.simulator).add(
                self, self._first_time + self.submission_delay
            )

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
        self._target_cycle = itertools.cycle(self.targets)


def spawn_load(
    simulator: Simulator,
    targets: Sequence[ValidatorNode],
    total_rate: float,
    duration: SimTime,
    start_time: SimTime = 0.0,
    submission_delay: SimTime = 0.040,
    on_submit: Optional[SubmitCallback] = None,
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
            on_submit=on_submit,
        )
        generator.start()
        generators.append(generator)
        remaining -= rate
        client_index += 1
    return generators
