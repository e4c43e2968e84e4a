"""Workload generation: clients submitting transactions at a fixed rate.

The paper's benchmark clients each submit at most 350 tx/s of simple
shared-counter increments for ten minutes; the number of clients depends
on the target load.  :class:`LoadGenerator` reproduces that behaviour in
virtual time; every transaction carries its submission timestamp.
"""

from repro.workload.transactions import Transaction
from repro.workload.generator import LoadGenerator, spawn_load
from repro.workload.phases import (
    LoadPhase,
    average_tps,
    burst_phases,
    spawn_phased_load,
)

__all__ = [
    "Transaction",
    "LoadGenerator",
    "spawn_load",
    "LoadPhase",
    "average_tps",
    "burst_phases",
    "spawn_phased_load",
]
