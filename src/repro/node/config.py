"""Node configuration.

The defaults model a production validator similar to the paper's testbed;
experiment presets (:mod:`repro.sim.presets`) adjust the batch size and
round pacing per committee size so that the simulated system saturates in
the same region as the paper's deployment.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.errors import ConfigurationError
from repro.types import SimTime


@dataclasses.dataclass
class NodeConfig:
    """Tunable parameters of a validator node."""

    # Maximum number of transactions carried by one vertex.
    max_batch_size: int = 250

    # Minimum time between two consecutive vertex proposals by the same
    # validator.  It models per-round processing cost (certificate
    # verification grows with committee size) and, like the production
    # system's ``min_header_delay``, keeps the round long enough for the
    # certificates of slower, more remote validators to be included, which
    # is what gives the DAG its fairness.
    min_round_interval: SimTime = 0.45

    # How long a validator waits for the anchor (leader vertex) of an even
    # round before advancing without it.  This is the Bullshark leader
    # timeout; it is the mechanism through which crashed leaders hurt the
    # baseline protocol.
    leader_timeout: SimTime = 1.5

    # Delay before re-requesting missing parents from another peer.
    fetch_retry_interval: SimTime = 1.0

    # Number of ordered anchor rounds to keep in the DAG before garbage
    # collection; 0 disables GC.
    gc_depth: int = 50

    # Record the full ordered sequence in memory (needed by safety checks;
    # disabled for very large simulations).
    record_sequence: bool = True

    # Upper bound on the round number, as a safety valve for runaway
    # simulations; ``None`` means unbounded.
    max_round: Optional[int] = None

    def validate(self) -> "NodeConfig":
        """Check internal consistency and return ``self``."""
        if self.max_batch_size < 0:
            raise ConfigurationError("max_batch_size must be non-negative")
        if self.min_round_interval < 0:
            raise ConfigurationError("min_round_interval must be non-negative")
        if self.leader_timeout < 0:
            raise ConfigurationError("leader_timeout must be non-negative")
        if self.fetch_retry_interval <= 0:
            raise ConfigurationError("fetch_retry_interval must be positive")
        if self.gc_depth < 0:
            raise ConfigurationError("gc_depth must be non-negative")
        if self.max_round is not None and self.max_round < 1:
            raise ConfigurationError("max_round must be at least 1")
        return self

    def scaled_for_committee(self, committee_size: int) -> "NodeConfig":
        """Derive a config whose round pacing reflects the committee size.

        Larger committees verify more certificates per round; the paper's
        100-validator runs peak at a slightly lower throughput than the
        10- and 50-validator runs for this reason.
        """
        if committee_size <= 0:
            raise ConfigurationError("committee size must be positive")
        per_certificate_cost = 0.0008
        return dataclasses.replace(
            self,
            min_round_interval=self.min_round_interval + per_certificate_cost * committee_size,
        )
