"""Leader-utilization statistics (Definition 3 / Lemma 6).

These statistics answer: how many anchor rounds produced a commit, how
many were skipped because the scheduled leader failed to gather votes, and
how the skips distribute over leaders.  Lemma 6 bounds the number of
rounds with no committed vertex by O(T)·f in crash-only executions; the
``UTIL`` benchmark checks this bound empirically.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Set

from repro.consensus.committed import CommittedSubDag
from repro.types import Round, ValidatorId


@dataclasses.dataclass
class LeaderUtilizationStats:
    """Observed anchor outcomes during one run (from an observer node)."""

    committed_rounds: Set[Round] = dataclasses.field(default_factory=set)
    committed_leaders: Dict[ValidatorId, int] = dataclasses.field(default_factory=dict)
    skipped_rounds: Dict[Round, ValidatorId] = dataclasses.field(default_factory=dict)

    def record_commit(self, subdag: CommittedSubDag) -> None:
        self.committed_rounds.add(subdag.anchor_round)
        leader = subdag.leader
        self.committed_leaders[leader] = self.committed_leaders.get(leader, 0) + 1

    def finalize_skips(self, highest_committed_round: Round, leader_of) -> None:
        """Fill in skipped anchor rounds up to ``highest_committed_round``.

        ``leader_of`` maps an anchor round to its scheduled leader (under
        the observer's schedule history).
        """
        for round_number in range(2, highest_committed_round + 1, 2):
            if round_number not in self.committed_rounds:
                self.skipped_rounds[round_number] = leader_of(round_number)

    # -- derived metrics -----------------------------------------------------------

    @property
    def skips(self) -> int:
        return len(self.skipped_rounds)

    def skipped_rounds_per_leader(self) -> Dict[ValidatorId, int]:
        result: Dict[ValidatorId, int] = {}
        for leader in self.skipped_rounds.values():
            result[leader] = result.get(leader, 0) + 1
        return result

    def commits_per_leader(self) -> Dict[ValidatorId, int]:
        return dict(self.committed_leaders)
