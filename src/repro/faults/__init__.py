"""Fault injection: crash, crash-recovery, degraded, and Byzantine faults.

Fault plans are declarative descriptions of what goes wrong during a run;
the simulation runner applies them to the network and the nodes at the
scheduled virtual times.  Byzantine *behavior* lives in
:mod:`repro.behavior` as composable policies; :class:`BehaviorFault`
installs them on a timeline.
"""

from repro.faults.base import FaultPlan, FaultInjector
from repro.faults.behavior import BehaviorFault
from repro.faults.crash import CrashFault, CrashRecoveryFault, crash_last_f
from repro.faults.slow import SlowValidatorFault, degrade_fraction
from repro.faults.partition import (
    NetworkDisturbanceFault,
    PartitionPlan,
    isolate_tail_fraction,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "BehaviorFault",
    "CrashFault",
    "CrashRecoveryFault",
    "crash_last_f",
    "SlowValidatorFault",
    "degrade_fraction",
    "PartitionPlan",
    "NetworkDisturbanceFault",
    "isolate_tail_fraction",
]
