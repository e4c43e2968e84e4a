"""Construction of initial leader schedules.

The paper initializes the schedule "by randomly permuting all validators
based on their stake": each validator receives a number of slots
proportional to its stake and the slot sequence is then permuted with a
seed all validators share (for example derived from the previous epoch's
randomness).  With equal stake this degenerates to the classic round-robin
rotation that baseline Bullshark uses.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.committee import Committee
from repro.errors import ScheduleError
from repro.schedule.base import LeaderSchedule
from repro.types import Round, ValidatorId


def stake_weighted_slots(
    committee: Committee,
    cycle_length: int = 0,
) -> Tuple[ValidatorId, ...]:
    """Slots proportional to stake.

    ``cycle_length`` bounds the rotation length; when zero, the cycle
    assigns one slot per unit of stake (scaled down by the greatest common
    divisor of the stakes when possible so cycles stay short).
    """
    stakes = [committee.stake_of(validator) for validator in committee.validators]
    if cycle_length <= 0:
        divisor = _gcd_of(stakes)
        slot_counts = [stake // divisor for stake in stakes]
    else:
        total = sum(stakes)
        slot_counts = [max(1, round(cycle_length * stake / total)) for stake in stakes]
    slots: List[ValidatorId] = []
    for validator, count in zip(committee.validators, slot_counts):
        slots.extend([validator] * count)
    if not slots:
        raise ScheduleError("stake-weighted slot assignment produced no slots")
    return tuple(slots)


def initial_schedule(
    committee: Committee,
    seed: int = 0,
    initial_round: Round = 2,
    permute: bool = True,
) -> LeaderSchedule:
    """Build the unbiased initial schedule ``S0`` of an epoch.

    ``initial_round`` is the first anchor round the schedule covers
    (round 2 is the first anchor round of a fresh DAG).
    """
    slots = list(stake_weighted_slots(committee))
    if permute:
        rng = random.Random(seed)
        rng.shuffle(slots)
    return LeaderSchedule(epoch=0, initial_round=initial_round, slots=tuple(slots))


def _gcd_of(values: List[int]) -> int:
    result = 0
    for value in values:
        result = _gcd(result, value)
    return max(1, result)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
