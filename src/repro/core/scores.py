"""Reputation scores (the ``scores(.)`` data structure of Section 3).

Every validator starts a schedule epoch with a score of zero.  Scores are
only ever updated from information derived from *committed* sub-DAGs, so
every honest validator computes identical scores for identical committed
prefixes — the property Schedule Agreement (Proposition 1) rests on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.committee import Committee
from repro.errors import ScheduleError
from repro.types import Stake, ValidatorId


class ReputationScores:
    """Per-validator reputation accumulated during one schedule epoch."""

    def __init__(self, committee: Committee) -> None:
        self.committee = committee
        self._scores: Dict[ValidatorId, float] = {
            validator: 0.0 for validator in committee.validators
        }

    # -- updates --------------------------------------------------------------

    def add(self, validator: ValidatorId, points: float = 1.0) -> None:
        """Add ``points`` to a validator's score."""
        if validator not in self._scores:
            raise ScheduleError(f"validator {validator} is not in the committee")
        self._scores[validator] += points

    def set(self, validator: ValidatorId, value: float) -> None:
        """Overwrite a validator's score (ratio-style rules materialize
        their per-epoch scores in one write instead of accumulating)."""
        if validator not in self._scores:
            raise ScheduleError(f"validator {validator} is not in the committee")
        self._scores[validator] = value

    def reset(self) -> None:
        """Zero all scores (called at the start of a new schedule epoch)."""
        for validator in self._scores:
            self._scores[validator] = 0.0

    # -- queries ---------------------------------------------------------------

    def as_dict(self) -> Dict[ValidatorId, float]:
        return dict(self._scores)

    # -- rankings ---------------------------------------------------------------

    def ranked_ascending(self) -> List[ValidatorId]:
        """Validators from lowest to highest score.

        Ties are broken deterministically by validator id (the paper
        requires deterministic tie resolution so that every validator
        derives the same B and G sets).
        """
        return sorted(self._scores, key=lambda validator: (self._scores[validator], validator))

    def ranked_descending(self) -> List[ValidatorId]:
        """Validators from highest to lowest score, ties by id."""
        return sorted(
            self._scores, key=lambda validator: (-self._scores[validator], validator)
        )

    def lowest_by_stake_budget(self, stake_budget: Stake) -> List[ValidatorId]:
        """Lowest-scoring validators whose cumulative stake fits the budget.

        This implements "a set B that contains at most f validators (by
        stake)": validators are taken in ascending score order while their
        cumulative stake stays within ``stake_budget``.
        """
        selected: List[ValidatorId] = []
        used: Stake = 0
        for validator in self.ranked_ascending():
            stake = self.committee.stake_of(validator)
            if used + stake > stake_budget:
                continue
            selected.append(validator)
            used += stake
        return selected

    def highest(self, count: int, excluding: Iterable[ValidatorId] = ()) -> List[ValidatorId]:
        """The ``count`` highest-scoring validators outside ``excluding``."""
        if count <= 0:
            return []
        banned = set(excluding)
        result = []
        for validator in self.ranked_descending():
            if validator in banned:
                continue
            result.append(validator)
            if len(result) == count:
                break
        return result
