"""Event queue for the discrete-event simulator.

Events are ordered by their firing time; ties are broken by a strictly
increasing sequence number so that two events scheduled for the same
instant fire in scheduling order.  That property makes every simulation
fully deterministic for a fixed seed.

The heap stores plain ``(time, sequence, handle)`` tuples rather than the
handles themselves: tuple comparison short-circuits on the two primitive
fields in C, which keeps the comparison cost out of the Python interpreter.
The event loop is the single hottest path of every experiment (millions of
pushes and pops per run), so this representation is worth the small
indirection.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.types import SimTime


class EventHandle:
    """A handle returned by scheduling, usable for cancellation.

    ``args``, when set, is passed to the callback at fire time.  The
    message-delivery path uses this to schedule a shared module-level
    function with an argument tuple instead of materializing a closure
    per message (hundreds of thousands per run).
    """

    __slots__ = ("time", "sequence", "callback", "args")

    def __init__(
        self,
        time: SimTime,
        sequence: int,
        callback: Optional[Callable[..., Any]],
        args: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    def cancel(self) -> None:
        """Cancel the event.  Cancelling twice is harmless."""
        self.callback = None

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.sequence) < (other.time, other.sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "cancelled" if self.callback is None else "live"
        return f"EventHandle(t={self.time}, seq={self.sequence}, {state})"


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
# avoid).  If the entry shape or the ``_live``/``_cancelled`` accounting
# changes, update ALL of: producers ``EventQueue.push``,
# ``Simulator._push`` and ``Network._fan_out`` (transport.py);
# consumers ``EventQueue.pop``/``peek_time`` and ``Simulator.run``/``step``.
# Client load is not a producer: arrivals are a lazy source
# (``Simulator.settle``), never heap entries.
_Entry = Tuple[SimTime, int, Optional[EventHandle]]


class EventQueue:
    """A priority queue of :class:`EventHandle` objects."""

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._next_sequence = 0
        self._live = 0
        # Cancelled handles still sitting in the heap.  The run loop only
        # pays the cancelled-entry scan while this is non-zero.
        self._cancelled = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: SimTime, callback: Callable[[], Any]) -> EventHandle:
        """Schedule ``callback`` to fire at ``time``."""
        if callback is None:
            raise SimulationError("cannot schedule a None callback")
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        handle = EventHandle(time, sequence, callback)
        heapq.heappush(self._heap, (time, sequence, handle))
        self._live += 1
        return handle

    def pop(self) -> EventHandle:
        """Pop the earliest non-cancelled event.

        Raises :class:`SimulationError` when the queue holds no live event.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            handle = entry[2]
            if handle is None:
                # Raw fire-and-forget entry: wrap it for the caller.
                self._live -= 1
                return EventHandle(entry[0], entry[1], entry[3], entry[4])
            if handle.callback is None:
                # Clamped: a handle cancelled via handle.cancel() directly
                # (bypassing Simulator.cancel) never incremented the
                # counter, and a negative value would permanently enable
                # the run loop's purge branch.
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            self._live -= 1
            return handle
        raise SimulationError("the event queue is empty")

    def peek_time(self) -> Optional[SimTime]:
        """Return the firing time of the next live event, or ``None``."""
        heap = self._heap
        while heap:
            handle = heap[0][2]
            if handle is not None and handle.callback is None:
                heapq.heappop(heap)
                if self._cancelled > 0:
                    self._cancelled -= 1
                continue
            break
        if not heap:
            return None
        return heap[0][0]

    def note_cancelled(self) -> None:
        """Record that one previously live event was cancelled externally."""
        if self._live > 0:
            self._live -= 1
        self._cancelled += 1
