"""Validator committee: membership, stake, and quorum arithmetic."""

from repro.committee.committee import Committee, ValidatorInfo
from repro.committee.stake import StakeDistribution, equal_stake, geometric_stake

__all__ = [
    "Committee",
    "ValidatorInfo",
    "StakeDistribution",
    "equal_stake",
    "geometric_stake",
]
