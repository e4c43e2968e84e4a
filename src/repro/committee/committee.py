"""The validator committee.

A :class:`Committee` is the static membership information every validator
knows: who the validators are, how much stake each holds, which region
each runs in, and the derived quorum thresholds.  Committees are immutable
for the duration of an epoch; HammerHead changes the *leader schedule*
within a committee, never the committee itself.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.committee.stake import StakeDistribution, StakeVector, equal_stake
from repro.crypto.hashing import evict_oldest_half
from repro.crypto.keys import PublicKey, keypairs_for_committee
from repro.errors import CommitteeError
from repro.types import Region, Stake, ValidatorId, quorum_threshold, validity_threshold

# The thirteen AWS regions used by the paper's evaluation testbed.
DEFAULT_REGIONS: Tuple[str, ...] = (
    "us-east-1",
    "us-west-2",
    "ca-central-1",
    "eu-central-1",
    "eu-west-1",
    "eu-west-2",
    "eu-west-3",
    "eu-north-1",
    "ap-south-1",
    "ap-southeast-1",
    "ap-southeast-2",
    "ap-northeast-1",
    "ap-northeast-2",
)


@dataclasses.dataclass(frozen=True)
class ValidatorInfo:
    """Static metadata describing one committee member."""

    validator: ValidatorId
    name: str
    stake: Stake
    region: Region
    public_key: PublicKey


class Committee:
    """An immutable set of validators with stake and region placement."""

    def __init__(self, members: Sequence[ValidatorInfo]) -> None:
        if not members:
            raise CommitteeError("a committee needs at least one validator")
        expected_ids = list(range(len(members)))
        actual_ids = [member.validator for member in members]
        if actual_ids != expected_ids:
            raise CommitteeError(
                "committee members must be supplied in index order 0..n-1; "
                f"got {actual_ids}"
            )
        if any(member.stake <= 0 for member in members):
            raise CommitteeError("every validator must hold positive stake")
        self._members: Tuple[ValidatorInfo, ...] = tuple(members)
        self._total_stake: Stake = sum(member.stake for member in members)
        # Hot-path lookups: stakes indexable by validator id, thresholds
        # precomputed (the consensus engine queries them per insertion).
        self._stakes: Tuple[Stake, ...] = tuple(member.stake for member in members)
        self._quorum_threshold: Stake = quorum_threshold(self._total_stake)
        self._validity_threshold: Stake = validity_threshold(self._total_stake)
        # Vectorized stake arithmetic shared by every node of a simulation
        # (see :class:`~repro.committee.stake.StakeVector`).
        self._stake_vector = StakeVector(self._stakes)
        # Edge-quorum verdicts memoized by vertex digest: one proposed
        # vertex object is validated by every recipient's DAG store, and
        # the digest binds the edge set, so the verdict is shared.
        # ``check_edge_quorum`` reads a hit straight off this dict.
        self.edge_quorum_verdicts: Dict[bytes, bool] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        size: int,
        stake: Optional[StakeDistribution] = None,
        regions: Sequence[str] = DEFAULT_REGIONS,
        seed: int = 0,
    ) -> "Committee":
        """Build a committee of ``size`` validators.

        Validators are spread over ``regions`` as equally as possible, the
        same placement policy the paper uses on AWS.  Key pairs are derived
        deterministically from ``seed`` so simulations are reproducible.
        """
        if size <= 0:
            raise CommitteeError("committee size must be positive")
        if not regions:
            raise CommitteeError("at least one region is required")
        distribution = stake if stake is not None else equal_stake(size)
        if distribution.size != size:
            raise CommitteeError(
                f"stake distribution covers {distribution.size} validators, "
                f"but the committee has {size}"
            )
        keypairs = keypairs_for_committee(size, seed=seed)
        members = []
        for index in range(size):
            region_name = regions[index % len(regions)]
            members.append(
                ValidatorInfo(
                    validator=index,
                    name=f"validator-{index}",
                    stake=distribution.stake_of(index),
                    region=Region(region_name),
                    public_key=keypairs[index].public,
                )
            )
        return cls(members)

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._members)

    @property
    def validators(self) -> Tuple[ValidatorId, ...]:
        return tuple(member.validator for member in self._members)

    def __contains__(self, validator: ValidatorId) -> bool:
        return 0 <= validator < len(self._members)

    def info(self, validator: ValidatorId) -> ValidatorInfo:
        if validator not in self:
            raise CommitteeError(f"unknown validator {validator}")
        return self._members[validator]

    def stake_of(self, validator: ValidatorId) -> Stake:
        if not 0 <= validator < len(self._stakes):
            raise CommitteeError(f"unknown validator {validator}")
        return self._stakes[validator]

    def region_of(self, validator: ValidatorId) -> Region:
        return self.info(validator).region

    # -- stake arithmetic ---------------------------------------------------

    @property
    def total_stake(self) -> Stake:
        return self._total_stake

    @property
    def quorum_threshold(self) -> Stake:
        """The 2f+1 threshold expressed in stake."""
        return self._quorum_threshold

    @property
    def validity_threshold(self) -> Stake:
        """The f+1 threshold expressed in stake."""
        return self._validity_threshold

    @property
    def max_faulty(self) -> int:
        """The maximum number of faulty validators tolerated, ``f = (n-1)//3``."""
        return (self.size - 1) // 3

    @property
    def stake_vector(self) -> StakeVector:
        """Precomputed stake arithmetic for the quorum/commit hot paths."""
        return self._stake_vector

    def stake(self, validators: Iterable[ValidatorId]) -> Stake:
        """Total stake held by ``validators`` (duplicates counted once)."""
        stakes = self._stakes
        size = len(stakes)
        if not isinstance(validators, (set, frozenset)):
            validators = set(validators)
        total = 0
        for validator in validators:
            if not 0 <= validator < size:
                raise CommitteeError(f"unknown validator {validator}")
            total += stakes[validator]
        return total

    def has_quorum(self, validators: Iterable[ValidatorId]) -> bool:
        return self.stake(validators) >= self.quorum_threshold

    def edge_quorum_verdict(
        self,
        digest: bytes,
        sources: Iterable[ValidatorId],
        mask: Optional[int] = None,
    ) -> bool:
        """Memoized 2f+1 check for a vertex's parent edge set.

        Keyed by the vertex content digest (which binds the edge set), so
        the ``n`` DAG stores validating one broadcast vertex share a
        single verification.  When the caller supplies the precomputed
        edge ``mask`` and stake is uniform, the stake sum collapses to a
        popcount-multiply; any out-of-range bit falls through to
        :meth:`stake`, which raises on unknown validators.
        """
        cache = self.edge_quorum_verdicts
        verdict = cache.get(digest)
        if verdict is None:
            evict_oldest_half(cache, 65536)
            vector = self._stake_vector
            if mask is not None and vector.uniform_stake and not mask >> vector.size:
                verdict = mask.bit_count() * vector.uniform_stake >= self._quorum_threshold
            else:
                verdict = self.stake(sources) >= self._quorum_threshold
            cache[digest] = verdict
        return verdict
