"""Committed-prefix consistency checks over ordering checkpoints.

The consensus engine snapshots its rolling ordering digest every
:data:`~repro.consensus.bullshark.ORDERING_CHECKPOINT_INTERVAL` ordered
vertices into ``ordering_checkpoints`` (a list of ``(count, hexdigest)``
pairs).  Because the digest is a pure fold over the ordered sequence,
two chains agree at an aligned count *iff* they ordered the same prefix
of that length — which turns safety and cross-run comparisons into
checkpoint-list walks:

* **Intra-run safety** — every pair of honest validators in one run
  must agree at every aligned checkpoint (a mismatch is an ordering
  safety violation, whatever their final counts are).
* **Cross-run comparison** — two runs whose final digests legitimately
  differ (one lossy scenario under two scoring rules) are
  compared by their *longest common committed prefix* instead of
  erroring out: they must agree on every aligned checkpoint up to the
  point where their histories genuinely diverge, and the divergence
  point quantifies how much committed history they share.

Chains compared here should include the final ``(ordered_count,
digest)`` position (see :func:`checkpoint_chain`) so two identical runs
compare equal through their full length, not just through the last
periodic checkpoint.

Pure post-processing: no clock, no randomness, no protocol state.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Checkpoint = Tuple[int, str]


@dataclasses.dataclass(frozen=True)
class PrefixComparison:
    """Outcome of comparing two checkpoint chains.

    ``common_prefix`` is the highest aligned ordered-count at which both
    chains carry the same digest (0 when no aligned checkpoint agrees);
    ``first_divergence`` is the lowest aligned count where the digests
    differ (``None`` when the chains never contradict each other —
    i.e. one run's committed history is, as far as the checkpoints can
    resolve, a prefix of the other's).
    """

    common_prefix: int
    first_divergence: Optional[int]
    left_count: int
    right_count: int

    @property
    def consistent(self) -> bool:
        """True when no aligned checkpoint contradicts the other chain."""
        return self.first_divergence is None

    def describe(self) -> str:
        base = (
            f"common committed prefix {self.common_prefix} "
            f"(left ordered {self.left_count}, right ordered {self.right_count})"
        )
        if self.first_divergence is not None:
            return base + f"; diverged by ordered position {self.first_divergence}"
        return base + "; no divergence at any aligned checkpoint"


def checkpoint_chain(
    checkpoints: Sequence[Checkpoint], final: Optional[Checkpoint] = None
) -> List[Checkpoint]:
    """A comparison chain: the periodic checkpoints plus the final position.

    ``final`` is the ``(ordered_count, digest)`` pair a run ends on
    (``ExperimentResult.ordering_digests[validator]``); it is appended
    when it extends past the last periodic checkpoint so equal-length
    runs compare through their full committed sequence.
    """
    chain = list(checkpoints)
    if final is not None and final[0] > 0:
        if not chain or final[0] > chain[-1][0]:
            chain.append((final[0], final[1]))
    return chain


def compare_prefixes(
    left: Sequence[Checkpoint], right: Sequence[Checkpoint]
) -> PrefixComparison:
    """Compare two checkpoint chains at their aligned ordered-counts.

    Only counts present in both chains can be compared (checkpoints fall
    on fixed multiples, so honest chains align; the final positions only
    align when the runs ordered equally much).  Each chain must be
    ascending in count — they are recorded that way.
    """
    left_index: Dict[int, str] = {count: digest for count, digest in left}
    common = 0
    divergence: Optional[int] = None
    for count, digest in right:
        expected = left_index.get(count)
        if expected is None:
            continue
        if expected == digest:
            if count > common:
                common = count
        elif divergence is None or count < divergence:
            divergence = count
    left_count = left[-1][0] if left else 0
    right_count = right[-1][0] if right else 0
    return PrefixComparison(
        common_prefix=common,
        first_divergence=divergence,
        left_count=left_count,
        right_count=right_count,
    )


def check_run_consistency(
    ordering_digests: Dict[int, Tuple[int, str]],
    ordering_checkpoints: Dict[int, Sequence[Checkpoint]],
    validators: Optional[Iterable[int]] = None,
) -> List[str]:
    """Intra-run safety: all validators' committed prefixes must agree.

    Every validator's chain is compared against every other's; any
    aligned checkpoint mismatch (including final positions at equal
    counts) is an ordering safety violation.  Returns a list of
    violation descriptions — empty means the run is prefix-consistent.
    Validators that ordered nothing are trivially consistent.
    """
    ids = sorted(validators) if validators is not None else sorted(ordering_digests)
    chains = {
        validator: checkpoint_chain(
            ordering_checkpoints.get(validator, ()),
            ordering_digests.get(validator),
        )
        for validator in ids
    }
    violations: List[str] = []
    for position, left_id in enumerate(ids):
        for right_id in ids[position + 1:]:
            comparison = compare_prefixes(chains[left_id], chains[right_id])
            if not comparison.consistent:
                violations.append(
                    f"validators {left_id} and {right_id} diverge by ordered "
                    f"position {comparison.first_divergence} "
                    f"(common prefix {comparison.common_prefix})"
                )
    return violations
