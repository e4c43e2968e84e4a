"""The calibration kernel: it defines the unit "cal".

Every host-time number the suite reports is divided by the time this
kernel takes on the same machine at the same moment, so a number read on
a slow or busy host compares with one read on a fast, idle host (the
IceCube idiom, PAPERS.md: work per unit of a calibrated resource, not raw
wall time).  One cal is one call of :func:`kernel`.

The kernel is the operation mix of the simulator's hot paths — a binary
heap of tuples, dicts keyed by ints and tuples, short-lived tuples,
attribute reads on slotted objects, SHA-256 of short byte strings — in
pure Python, and it imports nothing from ``repro``: a change to the
program cannot change the unit.  Its working set is kept small (a 16k-key
table, a heap that drains as fast as it fills): measured against the
simulator on a host whose speed drifts by 15-20% over minutes, this
variant tracked the drift best (correlation 0.94 between block medians,
quartile distance of the ratio 2.6-7% against 12-17% for raw seconds);
a variant with a 64k-key table and a 75k-entry heap slowed down about
twice as much as the simulator did whenever the host slowed down.

**Never edit this file after the PR that added it.**  Every recorded
number is in cal; editing the kernel silently rescales all of them.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import time

_ITEMS = 100_000

# What the kernel takes on the reference host.  Wall-clock metrics that
# must stay in seconds (``setup_s``) are reported as seconds on that
# host: measured seconds x REFERENCE_S / kernel seconds measured beside
# them.
REFERENCE_S = 0.2


class _Slot:
    __slots__ = ("key", "weight", "seen")

    def __init__(self, key: int, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.seen = 0


def _work() -> int:
    state = 0x2545F491
    heap: list = []
    table: dict = {}
    slots = [_Slot(index, index % 7) for index in range(64)]
    checksum = 0
    sha256 = hashlib.sha256
    push = heapq.heappush
    pop = heapq.heappop
    for sequence in range(_ITEMS):
        # A 31-bit linear congruential step: no ``random`` import, so the
        # kernel's cost does not depend on that module's implementation.
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        due = state / 2147483648.0
        push(heap, (due, sequence, None, sequence & 63))
        slot = slots[state & 63]
        slot.seen += 1
        key = (state & 255, slot.key)
        table[key] = table.get(key, 0) + slot.weight
        if sequence & 1:
            entry = pop(heap)
            checksum += entry[3]
            digest = sha256(b"%d|%d|%d" % (entry[1], entry[3], state)).digest()
            table[entry[1] & 255] = digest[0]
    while heap:
        checksum += pop(heap)[1] & 1
    return checksum + len(table)


def kernel() -> float:
    """Run the fixed kernel once and return its wall-clock seconds.

    The cyclic collector is off inside the window, as it is inside
    ``SimulationRunner.run``: a generational scan triggered by the
    kernel's own allocations would make its time depend on how much
    garbage the caller left behind.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
