"""Exception hierarchy for the HammerHead reproduction.

Every error raised by the library derives from :class:`ReproError` so that
applications embedding the simulator can catch a single base class.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An experiment, committee, or node was configured inconsistently."""


class CommitteeError(ConfigurationError):
    """The validator committee definition is invalid."""


class NetworkError(ReproError):
    """The simulated network was asked to do something impossible."""


class DagError(ReproError):
    """A DAG invariant (causal completeness, uniqueness) was violated."""


class EquivocationError(DagError):
    """Two different vertices claim the same (round, source) identity."""


class MissingParentError(DagError):
    """A vertex referenced a parent that is not present in the DAG."""


class ConsensusError(ReproError):
    """The consensus engine detected an internal inconsistency."""


class SafetyViolationError(ConsensusError):
    """Two honest validators ordered conflicting histories.

    This error is never expected to surface during a correct run; the test
    suite asserts it is not raised across randomized executions.
    """


class ScheduleError(ReproError):
    """A leader schedule was constructed or queried incorrectly."""


class BroadcastError(ReproError):
    """The reliable broadcast layer detected a protocol violation."""


class SimulationError(ReproError):
    """The discrete-event simulation harness was misused."""


class WorkloadError(ReproError):
    """A load generator was configured incorrectly."""
