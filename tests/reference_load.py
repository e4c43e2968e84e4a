"""Reference client load: one heap event per transaction.

``repro.workload.generator`` materialises client arrivals in bulk when a
pool is read.  This module is the schedule it must reproduce, written the
slow and obvious way: every transaction is its own simulator event, fired
at its arrival instant, each one scheduling its successor.  Which of two
arrivals at the same instant is delivered first is therefore decided by
the event queue — scheduling order — and the production merge has to
agree with it (``tests/property/test_prop_lazy_load.py``).

A delivered transaction is the plain tuple
``(client_id, submitted_at, target_id)``.  Imports: the standard library
and ``repro.network.simulator`` only.
"""

from __future__ import annotations

import itertools

from repro.network.simulator import Simulator

MAX_RATE_PER_CLIENT = 350.0


class ReferenceLoadGenerator:
    """One client: the eager chain ``LoadGenerator`` used to be."""

    def __init__(
        self, client_id, simulator: Simulator, targets, rate, duration,
        start_time=0.0, submission_delay=0.040, on_submit=None,
    ):
        self.client_id = client_id
        self.simulator = simulator
        self.on_submit = on_submit
        self.submission_delay = submission_delay
        self.submitted = 0
        self._interval = 1.0 / rate
        self._first_time = start_time + (client_id % 17) * self._interval / 17.0
        self._count = int(round(rate * duration))
        self.set_targets(targets)

    def start(self):
        if self._count > 0:
            self.simulator.schedule_at(self._first_time + self.submission_delay, self._deliver_next)

    def set_targets(self, targets):
        self._target_cycle = itertools.cycle(list(targets))

    def _deliver_next(self):
        index = self.submitted
        self.submitted = index + 1
        if self.submitted < self._count:
            self.simulator.schedule_at(
                self._first_time + self.submitted * self._interval + self.submission_delay,
                self._deliver_next,
            )
        target = next(self._target_cycle)
        transaction = (self.client_id, self._first_time + index * self._interval, target.id)
        if self.on_submit is not None:
            self.on_submit(transaction)
        target.submit_transaction(transaction)


def reference_spawn_load(
    simulator, targets, total_rate, duration, start_time=0.0, submission_delay=0.040,
    on_submit=None, first_client_id=0,
):
    """``spawn_load``: clients of at most 350 tx/s until ``total_rate`` is met."""
    generators = []
    remaining = total_rate
    while remaining > 1e-9:
        rate = min(MAX_RATE_PER_CLIENT, remaining)
        generator = ReferenceLoadGenerator(
            first_client_id + len(generators), simulator, targets, rate, duration,
            start_time, submission_delay, on_submit,
        )
        generator.start()
        generators.append(generator)
        remaining -= rate
    return generators


def reference_spawn_phased_load(simulator, targets, phases, submission_delay=0.040, on_submit=None):
    """``spawn_phased_load`` over ``(start, end, tps)`` windows; zero rate is quiet."""
    generators = []
    for start, end, tps in phases:
        if tps > 0:
            generators.extend(
                reference_spawn_load(
                    simulator, targets, tps, end - start, start, submission_delay,
                    on_submit, first_client_id=len(generators),
                )
            )
    return generators
