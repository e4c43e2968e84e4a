"""Fault injection: crash, crash-recovery, degraded, and Byzantine faults.

Fault plans are declarative descriptions of what goes wrong during a run;
the simulation runner applies them to the network and the nodes at the
scheduled virtual times.  Byzantine *behavior* lives in
:mod:`repro.behavior` as composable policies; :class:`BehaviorFault`
installs them on a timeline.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.base": ("FaultPlan", "FaultInjector"),
    "repro.faults.behavior": ("BehaviorFault",),
    "repro.faults.crash": ("CrashFault", "CrashRecoveryFault", "crash_last_f"),
    "repro.faults.slow": ("SlowValidatorFault", "degrade_fraction"),
    "repro.faults.partition": ("NetworkDisturbanceFault", "PartitionPlan", "isolate_tail_fraction"),
})

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
