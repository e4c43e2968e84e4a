"""Partial synchrony: the GST + Delta network model of the paper.

Section 2.1 assumes a partially synchronous network: before an unknown
Global Stabilization Time (GST) the adversary controls message delivery
(subject to eventual delivery); after GST every message arrives within a
known bound Delta.  The simulator reproduces this with a
:class:`SynchronyModel` that post-processes the delay produced by the
latency model.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.errors import NetworkError
from repro.types import SimTime


class SynchronyModel:
    """Interface: adjust a proposed delivery delay given the send time."""

    #: ``adjust_delay(send_time, proposed_delay, rng)``.
    adjust_delay: Callable[[SimTime, SimTime, random.Random], SimTime]


class AlwaysSynchronous(SynchronyModel):
    """A network that is synchronous from time zero (GST = 0)."""

    def __init__(self, delta: SimTime = 1.0) -> None:
        if delta <= 0:
            raise NetworkError("delta must be positive")
        self.delta = delta

    def adjust_delay(self, send_time: SimTime, proposed_delay: SimTime, rng: random.Random) -> SimTime:
        return min(proposed_delay, self.delta)


class PartialSynchrony(SynchronyModel):
    """GST + Delta partial synchrony with adversarial pre-GST delays.

    Before GST, every message may be delayed by an additional adversarial
    amount, up to ``max_asynchronous_delay`` but never beyond GST + Delta
    (messages sent before GST must arrive by GST + Delta, matching the
    model in Section 2.1).  After GST, delays are capped at Delta.
    """

    def __init__(
        self,
        gst: SimTime = 0.0,
        delta: SimTime = 1.0,
        max_asynchronous_delay: Optional[SimTime] = None,
        adversarial_probability: float = 1.0,
    ) -> None:
        if gst < 0:
            raise NetworkError("GST must be non-negative")
        if delta <= 0:
            raise NetworkError("delta must be positive")
        if not 0.0 <= adversarial_probability <= 1.0:
            raise NetworkError("adversarial_probability must lie in [0, 1]")
        self.gst = gst
        self.delta = delta
        self.max_asynchronous_delay = (
            max_asynchronous_delay if max_asynchronous_delay is not None else gst + delta
        )
        self.adversarial_probability = adversarial_probability

    def adjust_delay(self, send_time: SimTime, proposed_delay: SimTime, rng: random.Random) -> SimTime:
        if send_time >= self.gst:
            # Synchronous period: the bound Delta holds.
            return min(proposed_delay, self.delta)
        # Asynchronous period: the adversary may stretch delivery, but the
        # message must arrive by max(GST, send_time) + Delta.
        latest_allowed = max(self.gst, send_time) + self.delta
        delay = proposed_delay
        if rng.random() < self.adversarial_probability:
            delay += rng.uniform(0.0, self.max_asynchronous_delay)
        return min(delay, latest_allowed - send_time)
