"""Monotonic-clock scheduler: the Simulator facade for the net backend.

:class:`~repro.node.validator.ValidatorNode` drives all of its timing
through ``network.simulator`` — ``now``, ``schedule``/``schedule_at``/
``cancel``, the seeded ``rng``, and the ``events_fired`` counter.  This
module implements that exact surface over a running asyncio event loop,
so the full validator stack runs over real sockets unmodified.

``now`` is the loop's monotonic clock re-based to the scheduler's
construction instant.  It is wall time: **non-deterministic by design**
and therefore never digest-bearing — lockstep mode keeps every
digest-relevant decision off the clock (see ``repro/netexec/lockstep.py``),
and these timestamps only reach diagnostics (vertex ``created_at``,
trace stamps, which the artifact diff never compares).  No module on
the commit path may import it.
"""

from __future__ import annotations

import asyncio
import random
from typing import Callable

from repro.errors import SimulationError
from repro.types import SimTime


class MonotonicScheduler:
    """`Simulator`-shaped timing facade over an asyncio event loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop, seed: int) -> None:
        self._loop = loop
        self._epoch = loop.time()
        self._events_fired = 0
        self.seed = seed
        # One shared seeded stream, like Simulator.rng.  The *sequence*
        # of draws differs from the sim's (consumption order follows
        # real scheduling), which is exactly why lockstep keeps every
        # digest-relevant decision off the rng draw order.
        self.rng = random.Random(seed)

    @property
    def now(self) -> SimTime:
        return self._loop.time() - self._epoch

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def schedule(self, delay: SimTime, callback: Callable[[], None]):
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.3f}s into the past")

        def fire() -> None:
            self._events_fired += 1
            callback()

        return self._loop.call_later(delay, fire)

    def schedule_at(self, time: SimTime, callback: Callable[[], None]):
        return self.schedule(max(0.0, time - self.now), callback)

    def cancel(self, handle) -> None:
        handle.cancel()

    def settle(self) -> None:
        """No lazy sources over sockets: blocks are plan-synthesized."""
