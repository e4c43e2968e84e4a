"""Stake distributions for committees.

The paper notes that real blockchains have validators with heterogeneous
stake, and that high-stake validators occupy more leader slots.  The
simulator therefore supports two stake distributions: uniform (used in
the paper's evaluation, where every AWS validator is identical) and
geometric (a few heavy hitters).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.crypto.hashing import evict_oldest_half
from repro.errors import CommitteeError
from repro.types import Stake, quorum_threshold, validity_threshold


@dataclasses.dataclass(frozen=True)
class StakeDistribution:
    """An assignment of stake to each validator index."""

    stakes: Sequence[Stake]

    def __post_init__(self) -> None:
        if not self.stakes:
            raise CommitteeError("a stake distribution needs at least one validator")
        if any(stake <= 0 for stake in self.stakes):
            raise CommitteeError("every validator must hold positive stake")

    @property
    def size(self) -> int:
        return len(self.stakes)

    def stake_of(self, validator: int) -> Stake:
        return self.stakes[validator]


class StakeVector:
    """Precomputed stake lookup used by the quorum/commit hot paths.

    The consensus engine and the certified-broadcast layer sum stakes of
    validator subsets on every acknowledgement, certificate, and commit
    probe.  At committee sizes of 25+ those summations dominate profiles
    when they rebuild a set and index :class:`Committee` per element.  The
    vector keeps the per-validator stakes in a flat tuple, precomputes the
    thresholds, and memoizes quorum verdicts for
    signer tuples (one certificate object fans out to every validator, so
    the same tuple is verified ``n`` times per round).
    """

    __slots__ = (
        "stakes",
        "size",
        "total",
        "quorum",
        "validity",
        "uniform_stake",
        "_signer_quorum_cache",
        "signer_cache_hits",
        "signer_cache_misses",
        "_mask_quorum_cache",
        "mask_cache_hits",
        "mask_cache_misses",
        "verified_certificates",
    )

    # Signer tuples seen per run are bounded by committee size x live
    # rounds; the cap only matters for very long processes running many
    # experiments back to back.
    _SIGNER_CACHE_LIMIT = 65536

    def __init__(self, stakes: Sequence[Stake]) -> None:
        if not stakes:
            raise CommitteeError("a stake vector needs at least one validator")
        self.stakes: Tuple[Stake, ...] = tuple(stakes)
        self.size = len(self.stakes)
        self.total: Stake = sum(self.stakes)
        self.quorum: Stake = quorum_threshold(self.total)
        self.validity: Stake = validity_threshold(self.total)
        first = self.stakes[0]
        self.uniform_stake: Stake = first if all(s == first for s in self.stakes) else 0
        self._signer_quorum_cache: Dict[Tuple[int, ...], bool] = {}
        self._mask_quorum_cache: Dict[int, bool] = {}
        # ``id(certificate) -> certificate`` for objects the broadcast
        # layer verified under this vector (``_verify_certificate``).
        self.verified_certificates: Dict[int, object] = {}
        # Observability-only tallies (the vector is shared per committee,
        # so per-run numbers depend on committee reuse; keep them out of
        # digests).
        self.signer_cache_hits = 0
        self.signer_cache_misses = 0
        self.mask_cache_hits = 0
        self.mask_cache_misses = 0

    def signer_tuple_has_quorum(self, signers: Tuple[int, ...]) -> bool:
        """Memoized 2f+1 check for a certificate's signer tuple.

        Signer tuples are sorted and duplicate-free (the broadcast layer
        builds them from a voter set); equal tuples therefore have equal
        stake, and the verdict can be reused across the ``n`` recipients
        of one certificate fan-out.
        """
        cache = self._signer_quorum_cache
        verdict = cache.get(signers)
        if verdict is None:
            self.signer_cache_misses += 1
            if not all(0 <= signer < self.size for signer in signers):
                # Refused before an id becomes a shift, and not cached.
                return False
            evict_oldest_half(cache, self._SIGNER_CACHE_LIMIT)
            # Miss path: convert once and let the bitmask engine decide.
            # Duplicate signers collapse into one bit, so a malformed or
            # adversarial tuple can never inflate the stake — the same
            # guarantee the old dedupping sum gave.  The tuple cache in
            # front keeps the per-certificate fan-out cost at one dict
            # hit; converting on every call costs O(signers) and showed
            # up as a ~10% events/sec regression at committee 100.
            verdict = self.mask_has_quorum(self.mask_of_validators(signers))
            cache[signers] = verdict
        else:
            self.signer_cache_hits += 1
        return verdict

    # ------------------------------------------------------------------
    # Bitmask arithmetic (the committee-100 fast path).
    #
    # A validator subset is an int whose bit ``v`` is set iff validator
    # ``v`` is a member: duplicate-free by construction, hashable, and
    # O(1) to union/test.  Every mask method is a pure function of the
    # same stake tuple the tuple-based API reads, so verdicts agree bit
    # for bit with ``signer_tuple_has_quorum`` and a plain stake sum — the
    # property suite pins that equivalence across stake distributions.
    # ------------------------------------------------------------------

    def mask_stake(self, mask: int) -> Stake:
        """Total stake of the validator set encoded by ``mask``.

        Uniform committees (the paper's evaluation setting) reduce to a
        single popcount-multiply; heterogeneous committees fall back to
        iterating the set bits.  Raises on bits beyond the committee.
        """
        if mask < 0 or mask >> self.size:
            raise CommitteeError(f"mask {mask:#x} has bits outside the committee")
        if self.uniform_stake:
            return mask.bit_count() * self.uniform_stake
        stakes = self.stakes
        total = 0
        while mask:
            low_bit = mask & -mask
            total += stakes[low_bit.bit_length() - 1]
            mask ^= low_bit
        return total

    def mask_has_quorum(self, mask: int) -> bool:
        """Memoized 2f+1 check for a voter/signer bitmask.

        The bitmask twin of :meth:`signer_tuple_has_quorum`: one
        certificate fans out to ``n`` recipients, so the verdict for a
        given mask is computed once and reused.
        """
        cache = self._mask_quorum_cache
        verdict = cache.get(mask)
        if verdict is None:
            self.mask_cache_misses += 1
            evict_oldest_half(cache, self._SIGNER_CACHE_LIMIT)
            verdict = self.mask_stake(mask) >= self.quorum
            cache[mask] = verdict
        else:
            self.mask_cache_hits += 1
        return verdict

    @staticmethod
    def mask_of_validators(validators: Iterable[int]) -> int:
        """Bitmask of a validator id collection (duplicates collapse)."""
        mask = 0
        for validator in validators:
            if validator < 0:
                raise CommitteeError(f"unknown validator {validator}")
            mask |= 1 << validator
        return mask

    @staticmethod
    def validators_of_mask(mask: int) -> Tuple[int, ...]:
        """Ascending validator ids encoded by ``mask``.

        Bit order *is* ascending id order, so the result is byte-identical
        to ``tuple(sorted(validator_set))`` — the invariant that lets the
        certificate signers tuple be built straight from the ack mask.
        """
        validators: List[int] = []
        while mask:
            low_bit = mask & -mask
            validators.append(low_bit.bit_length() - 1)
            mask ^= low_bit
        return tuple(validators)


def equal_stake(size: int, per_validator: Stake = 1) -> StakeDistribution:
    """Uniform stake, as in the paper's AWS evaluation."""
    if size <= 0:
        raise CommitteeError("committee size must be positive")
    return StakeDistribution(tuple(per_validator for _ in range(size)))


def geometric_stake(size: int, ratio: float = 0.9, scale: int = 1000) -> StakeDistribution:
    """Geometrically decaying stake: validator ``i`` holds ``scale * ratio**i``.

    Produces a committee with a small number of dominant validators, the
    setting the introduction describes where the failure of a high-stake
    validator removes many leader slots at once.
    """
    if size <= 0:
        raise CommitteeError("committee size must be positive")
    if not 0.0 < ratio <= 1.0:
        raise CommitteeError("ratio must lie in (0, 1]")
    stakes = [max(1, int(round(scale * ratio**index))) for index in range(size)]
    return StakeDistribution(tuple(stakes))
