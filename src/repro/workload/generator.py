"""Fixed-rate load generators.

Each :class:`LoadGenerator` models one geo-distributed benchmark client:
it submits transactions at a constant rate to a set of target validators
(round-robin), adding the client-to-validator network delay before the
transaction enters the validator's pool.  Mirroring the paper, a single
client never submits more than ``MAX_RATE_PER_CLIENT`` transactions per
second; :func:`spawn_load` creates as many clients as needed for a target
system load.
"""

from __future__ import annotations

import itertools
from heapq import heappush as _heappush
from typing import Callable, List, Optional, Sequence

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
        self.submitted = 0
        self._target_cycle = itertools.cycle(self.targets)
        # Submission-chain state, initialized by start().
        self._interval: SimTime = 0.0
        self._first_time: SimTime = start_time
        self._count = 0
        self._next_index = 0
        # Prebound callback and queue handle: ``self._deliver_next``
        # creates a fresh bound method object per access, once per
        # transaction at peak load.
        self._deliver_bound = self._deliver_next
        self._queue = simulator._queue

    def start(self) -> None:
        """Schedule the submission chain for the configured duration.

        Submissions are scheduled just-in-time (each one schedules its
        successor) instead of being pushed into the event queue up front: a
        peak-load sweep point would otherwise start with tens of thousands
        of pre-scheduled events, making every heap operation of the whole
        run pay the log of that bulk.  Submission instants are still
        computed by index rather than by accumulation so that
        floating-point drift never adds or drops a transaction.

        Each transaction costs a single simulator event: the event fires at
        the *arrival* instant (submit time plus the client-to-validator
        delay) and carries the precomputed submission timestamp, instead of
        a submit event that schedules a separate arrival event.  This
        halves the workload's share of the event queue.  Two observable
        consequences, both deliberate:

        * **Tie-break renumbering.** Event-queue ties are broken by
          scheduling sequence number.  With the pair merged, workload
          events obtain different sequence numbers than in the two-event
          scheme, so same-instant ties against protocol events may resolve
          differently than in older revisions.  Runs remain fully
          deterministic for a given configuration (gated by
          ``tests/unit/test_workload.py`` and the simulator determinism
          tests); only cross-revision bit-compatibility was given up.
        * **End-of-run accounting.** A transaction submitted within the
          final ``submission_delay`` of the run used to count as submitted
          even though it could never arrive; now neither half happens.
          Metrics treat such transactions as never-submitted instead of
          submitted-but-lost, which is the more honest reading.
        """
        interval = 1.0 / self.rate
        # Stagger clients slightly so submissions do not all land on the
        # same instant when many clients are created.
        offset = (self.client_id % 17) * interval / 17.0
        self._interval = interval
        self._first_time = self.start_time + offset
        self._count = int(round(self.rate * self.duration))
        self._next_index = 0
        if self._count > 0:
            self.simulator.schedule_at(
                self._first_time + self.submission_delay, self._deliver_next
            )

    def set_targets(self, targets: Sequence[ValidatorNode]) -> None:
        """Fail the client over to a new target set (partition failover).

        The round-robin cycle restarts at the head of the new set; no RNG
        is involved, so retargeting keeps runs deterministic.
        """
        if not targets:
            raise WorkloadError("a load generator needs at least one target validator")
        self.targets = list(targets)
        self._target_cycle = itertools.cycle(self.targets)

    def _deliver_next(self) -> None:
        """Deliver one transaction and schedule the next delivery.

        A bound method rather than per-transaction closures: this runs once
        per transaction at peak load, where the cost of materializing
        function objects per submission is measurable.  The transaction's
        ``submitted_at`` is the precomputed submission instant, not the
        (later) arrival instant at which this event fires.
        """
        index = self._next_index
        next_index = index + 1
        self._next_index = next_index
        first_time = self._first_time
        interval = self._interval
        if next_index < self._count:
            # Inlined ``schedule_at`` with a raw fire-and-forget entry:
            # one push per transaction at peak load, always in the future
            # by construction and never cancelled.
            queue = self._queue
            sequence = queue._next_sequence
            queue._next_sequence = sequence + 1
            _heappush(
                queue._heap,
                (
                    first_time + next_index * interval + self.submission_delay,
                    sequence,
                    None,
                    self._deliver_bound,
                    None,
                ),
            )
            queue._live += 1
        target = next(self._target_cycle)
        transaction = Transaction(
            next(_next_tx_id),
            self.client_id,
            first_time + index * interval,
            target.id,
        )
        self.submitted += 1
        on_submit = self.on_submit
        if on_submit is not None:
            on_submit(transaction)
        target.submit_transaction(transaction)


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
