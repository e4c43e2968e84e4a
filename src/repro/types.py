"""Core value types shared across the HammerHead reproduction.

The whole code base manipulates a small number of primitive concepts:
validators, rounds, stake, and simulated time.  They are given explicit
types here so that signatures throughout the library read naturally
(``leader_for_round(round_number) -> ValidatorId``) and so that unit
tests can use :mod:`hypothesis` strategies over well-defined domains.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

# A validator is identified by a small non-negative integer index.  The
# committee object (see :mod:`repro.committee`) maps indices to richer
# metadata (name, stake, region).
ValidatorId = int

# DAG rounds are non-negative integers.  Round 0 holds the genesis
# vertices; anchors (leaders) live on even rounds and votes on odd rounds,
# following the Bullshark wave structure used in the paper (Algorithm 2).
Round = int

# Stake is measured in arbitrary integer units.
Stake = int

# Simulated time, in seconds, as used by the discrete-event simulator.
SimTime = float


def is_anchor_round(round_number: Round) -> bool:
    """Return ``True`` when ``round_number`` carries an anchor (a leader).

    In the paper's formulation (Algorithm 2), anchors are elected on even
    rounds greater than zero and votes for an anchor live on the following
    odd round.
    """
    return round_number > 0 and round_number % 2 == 0


def next_anchor_round(round_number: Round) -> Round:
    """The first anchor round at or after ``round_number`` (at least 2).

    The single definition of "which anchor is coming up" shared by the
    schedule lookup helpers and the schedule-adaptive adversaries.
    """
    anchor = round_number if round_number % 2 == 0 else round_number + 1
    return max(anchor, 2)


class VertexId(NamedTuple):
    """Unique identity of a DAG vertex.

    Honest validators issue at most one vertex per round and the reliable
    broadcast layer guarantees non-equivocation, so the pair
    ``(round, source)`` identifies a vertex uniquely.  A digest of the
    vertex contents is carried alongside for integrity checks; it does not
    participate in ordering or hashing so that identity remains stable
    across serialization round-trips.

    A ``NamedTuple`` rather than a dataclass: vertex ids are hashed and
    compared millions of times per run (DAG dicts, edge sets, reachability
    walks), and tuples do both in C.  Ordering stays lexicographic on
    ``(round, source)``, exactly as the ordered dataclass provided.
    """

    round: Round
    source: ValidatorId


@dataclasses.dataclass(frozen=True)
class Region:
    """A geographic region used by the latency model.

    The paper's testbed spreads validators over thirteen AWS regions; the
    simulator reproduces that topology with representative inter-region
    round-trip times (see :mod:`repro.network.latency`).
    """

    name: str


def quorum_threshold(total: Stake) -> Stake:
    """Return the 2f+1 stake threshold for a system tolerating f < n/3.

    Expressed over stake, the byzantine quorum threshold is the smallest
    integer strictly greater than two thirds of the total stake.
    """
    return (2 * total) // 3 + 1


def validity_threshold(total: Stake) -> Stake:
    """Return the f+1 stake threshold (at least one honest party)."""
    return total // 3 + 1
