"""The discrete-event simulator driving every experiment.

The simulator owns a virtual clock and an event heap.  Protocol code
never sleeps or reads wall-clock time; it schedules callbacks at virtual
times, which makes runs deterministic and allows a ten-minute benchmark to
execute in seconds of wall-clock time.

Events are ordered by their firing time; ties are broken by a strictly
increasing sequence number so that two events scheduled for the same
instant fire in scheduling order.  That property makes every simulation
fully deterministic for a fixed seed.

The heap stores plain tuples rather than the handles themselves: tuple
comparison short-circuits on the two primitive fields in C, which keeps
the comparison cost out of the Python interpreter.  The event loop is the
single hottest path of every experiment (millions of pushes and pops per
run), so this representation is worth the small indirection.
"""

from __future__ import annotations

import random
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Protocol, Tuple

from repro.errors import SimulationError
from repro.types import SimTime


class EventHandle:
    """A handle returned by scheduling, usable for cancellation."""

    __slots__ = ("time", "sequence", "callback")

    def __init__(self, time: SimTime, sequence: int, callback: Optional[Callable[[], Any]]) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    def cancel(self) -> None:
        """Cancel the event.  Cancelling twice is harmless."""
        self.callback = None


# One heap entry, in one of two shapes.  ``time`` and ``sequence`` drive
# the ordering; the third element is never compared (sequences are
# unique).
#
# * ``(time, sequence, handle)`` — a cancellable event carrying an
#   :class:`EventHandle`.
# * ``(time, sequence, None, callback, args)`` — a raw fire-and-forget
#   event (message deliveries).  These are never cancelled, so the
#   handle allocation is skipped entirely; ``args`` is ``None`` or a
#   tuple passed to ``callback``.
#
# The raw-entry protocol is deliberately inlined at every site (a shared
# push helper would reintroduce the per-event call the shape exists to
# avoid).  If the entry shape or the ``_cancelled`` accounting changes,
# update ALL of: producers ``Simulator._push`` and ``Network._fan_out``
# (transport.py); consumer ``Simulator.run``.  Client load is not a
# producer: arrivals are a lazy source (``Simulator.settle``), never heap
# entries.
_Entry = Tuple[SimTime, int, Optional[EventHandle]]


class LazySource(Protocol):
    """Effects that are a closed-form function of virtual time.

    A lazy source owns no heap events.  Whoever is about to read state
    the source writes calls :meth:`Simulator.settle` first, and the
    source then applies, in time order, every effect due at or before
    the instant it is given.
    """

    def settle(self, horizon: SimTime) -> SimTime:
        """Apply every effect due at or before ``horizon`` (inclusive).

        Returns the instant of the last effect applied, ``-inf`` when
        none was due.
        """


class Simulator:
    """A deterministic discrete-event loop with a virtual clock."""

    def __init__(self, seed: int = 0) -> None:
        self._heap: List[_Entry] = []
        self._next_sequence = 0
        # Cancelled handles still sitting in the heap.  The run loop only
        # pays the cancelled-entry scan while this is non-zero.
        self._cancelled = 0
        self._now: SimTime = 0.0
        self._running = False
        self.rng = random.Random(seed)
        self.seed = seed
        self._events_fired = 0
        self.lazy_sources: List[LazySource] = []

    # -- clock --------------------------------------------------------------

    @property
    def now(self) -> SimTime:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (useful for profiling)."""
        return self._events_fired

    # -- scheduling ----------------------------------------------------------

    def schedule(self, delay: SimTime, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay}s in the past")
        return self._push(self._now + delay, callback)

    def schedule_at(self, time: SimTime, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to fire at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at {time}, the clock is already at {self._now}"
            )
        return self._push(time, callback)

    def _push(self, time: SimTime, callback: Callable[[], Any]) -> EventHandle:
        if callback is None:
            raise SimulationError("cannot schedule a None callback")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        handle = EventHandle(time, sequence, callback)
        _heappush(self._heap, (time, sequence, handle))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event."""
        if not handle.cancelled:
            handle.cancel()
            self._cancelled += 1

    # -- lazy sources -------------------------------------------------------

    def settle(self) -> None:
        """Bring every lazy source up to the current instant (inclusive).

        Called by readers of state a lazy source writes (a validator
        about to read its transaction pool) and by :meth:`run` on exit.
        """
        now = self._now
        for source in self.lazy_sources:
            source.settle(now)

    # -- execution ------------------------------------------------------------

    def run(self, until: Optional[SimTime] = None) -> SimTime:
        """Run events until the heap drains or ``until`` is reached.
        Returns the clock value on exit.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier, which gives experiments a
        well-defined duration.  Lazy sources are settled on the way out:
        up to the exit instant, or — when the run drained the heap with
        no ``until`` — to the end of their schedules, the clock following
        the last effect exactly as if each had been an event.
        """
        if self._running:
            raise SimulationError("the simulator is already running")
        self._running = True
        fired = 0
        # An infinity sentinel collapses the per-iteration ``is not None``
        # branch into a plain float comparison.
        horizon = until if until is not None else float("inf")
        # This is the single hottest path of every experiment (hundreds
        # of thousands of iterations per run): the heap is a local and
        # the fired count is synced on exit.
        heap = self._heap
        heappop = _heappop
        try:
            while True:
                if self._cancelled > 0:
                    # Purge cancelled entries only while some exist; in
                    # steady state this whole branch is one counter read
                    # instead of a per-event heap-top inspection.  The
                    # counter is advisory (handles cancelled directly via
                    # handle.cancel() are caught by the fire-path guard
                    # below), so decrements are clamped at zero.
                    while heap:
                        stale = heap[0][2]
                        if stale is not None and stale.callback is None:
                            heappop(heap)
                            if self._cancelled > 0:
                                self._cancelled -= 1
                            continue
                        break
                if not heap:
                    break
                entry = heap[0]
                if entry[0] > horizon:
                    break
                heappop(heap)
                handle = entry[2]
                if handle is None:
                    # Raw fire-and-forget entry (message deliveries).
                    self._now = entry[0]
                    args = entry[4]
                    if args is None:
                        entry[3]()
                    else:
                        entry[3](*args)
                    fired += 1
                    continue
                callback = handle.callback
                if callback is None:
                    # Cancelled directly via handle.cancel() without going
                    # through Simulator.cancel (no accounting hint).
                    continue
                self._now = entry[0]
                handle.callback = None
                callback()
                fired += 1
        finally:
            self._running = False
            self._events_fired += fired
        if until is not None and self._now < until:
            self._now = until
        if until is None and not heap:
            # Ran to idle: lazy schedules finish, the clock on the last effect.
            for source in self.lazy_sources:
                self._now = max(self._now, source.settle(float("inf")))
        else:
            self.settle()
        return self._now
