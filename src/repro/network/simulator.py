"""The discrete-event simulator driving every experiment.

The simulator owns a virtual clock and an event queue.  Protocol code
never sleeps or reads wall-clock time; it schedules callbacks at virtual
times, which makes runs deterministic and allows a ten-minute benchmark to
execute in seconds of wall-clock time.
"""

from __future__ import annotations

import random
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Protocol

from repro.errors import SimulationError
from repro.network.events import EventHandle, EventQueue
from repro.types import SimTime


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
        self._queue = EventQueue()
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
        # Inlined EventQueue.push: scheduling happens once or twice per
        # event fired, so the extra call layer is measurable.
        if callback is None:
            raise SimulationError("cannot schedule a None callback")
        queue = self._queue
        sequence = queue._next_sequence
        queue._next_sequence = sequence + 1
        handle = EventHandle(time, sequence, callback)
        _heappush(queue._heap, (time, sequence, handle))
        queue._live += 1
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event."""
        if not handle.cancelled:
            handle.cancel()
            self._queue.note_cancelled()

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

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when none remain."""
        next_time = self._queue.peek_time()
        if next_time is None:
            return False
        handle = self._queue.pop()
        self._now = handle.time
        callback = handle.callback
        handle.callback = None
        self._events_fired += 1
        if callback is not None:
            if handle.args is None:
                callback()
            else:
                callback(*handle.args)
        return True

    def run(self, until: Optional[SimTime] = None, max_events: Optional[int] = None) -> SimTime:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the clock value on exit.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier, which gives experiments a
        well-defined duration.  Lazy sources are settled on the way out:
        up to the exit instant, or — when the run drained the queue with
        no ``until`` — to the end of their schedules, the clock following
        the last effect exactly as if each had been an event.
        """
        if self._running:
            raise SimulationError("the simulator is already running")
        self._running = True
        fired = 0
        # Infinity sentinels collapse the per-iteration ``is not None``
        # branches into plain float comparisons.
        limit = max_events if max_events is not None else float("inf")
        horizon = until if until is not None else float("inf")
        queue = self._queue
        # The loop below reaches into the queue's heap directly: this is
        # the single hottest path of every experiment (hundreds of
        # thousands of iterations per run) and the method-call overhead of
        # peek_time()/pop() is measurable there.  step() remains the
        # encapsulated one-event variant.
        heap = queue._heap
        heappop = _heappop
        # Counter writes are batched into locals and synced on exit; the
        # per-event attribute stores were measurable at peak event rates.
        popped = 0
        try:
            while fired < limit:
                if queue._cancelled > 0:
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
                            if queue._cancelled > 0:
                                queue._cancelled -= 1
                            continue
                        break
                if not heap:
                    break
                entry = heap[0]
                if entry[0] > horizon:
                    break
                heappop(heap)
                popped += 1
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
                args = handle.args
                if args is None:
                    callback()
                else:
                    callback(*args)
                fired += 1
        finally:
            self._running = False
            self._events_fired += fired
            queue._live -= popped
        if until is not None and self._now < until:
            self._now = until
        if until is None and not heap:
            # Ran to idle: lazy schedules finish, the clock on the last effect.
            for source in self.lazy_sources:
                self._now = max(self._now, source.settle(float("inf")))
        else:
            self.settle()
        return self._now

    def run_until_idle(self, max_time: SimTime = 1e9, max_events: int = 50_000_000) -> SimTime:
        """Run until no events remain, bounded by ``max_time`` and ``max_events``."""
        return self.run(until=max_time, max_events=max_events)
