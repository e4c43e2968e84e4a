"""Differential properties: bitmask quorum arithmetic vs the tuple API.

The committee-100 fast path encodes validator subsets as int bitmasks
(``StakeVector.mask_stake`` / ``mask_has_quorum`` / ``mask_of_validators``
/ ``validators_of_mask``).  Every mask operation must agree bit for bit
with the tuple-based API it replaces — across uniform and geometric
stake distributions, and under duplicate validator ids (which the
tuple fallback dedups and the bitmask collapses by construction).  These
properties are what license the RBC and consensus layers to swap tuples
for masks without a digest audit per call site.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.committee.stake import StakeVector, equal_stake, geometric_stake
from repro.errors import CommitteeError

DISTRIBUTIONS = ("uniform", "geometric")


def vector_for(kind: str, size: int) -> StakeVector:
    if kind == "uniform":
        return StakeVector(equal_stake(size).stakes)
    return StakeVector(geometric_stake(size).stakes)


@st.composite
def subset_case(draw):
    """A stake distribution plus a validator multiset (duplicates allowed)."""
    kind = draw(st.sampled_from(DISTRIBUTIONS))
    size = draw(st.integers(min_value=1, max_value=64))
    validators = draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=0,
            max_size=2 * size,
        )
    )
    return kind, size, validators


@given(subset_case())
@settings(max_examples=200, deadline=None)
def test_mask_quorum_matches_signer_tuple_quorum(case):
    """mask_has_quorum == signer_tuple_has_quorum on the same subset.

    The tuple API receives the raw (possibly duplicated, unsorted) tuple
    — its defensive dedup fallback must agree with the mask, whose bits
    collapse duplicates by construction.
    """
    kind, size, validators = case
    vector = vector_for(kind, size)
    mask = vector.mask_of_validators(validators)
    assert vector.mask_has_quorum(mask) == vector.signer_tuple_has_quorum(
        tuple(validators)
    )


@given(subset_case())
@settings(max_examples=200, deadline=None)
def test_mask_stake_matches_the_stake_sum(case):
    kind, size, validators = case
    vector = vector_for(kind, size)
    mask = vector.mask_of_validators(validators)
    assert vector.mask_stake(mask) == sum(vector.stakes[validator] for validator in set(validators))


@given(subset_case())
@settings(max_examples=200, deadline=None)
def test_mask_roundtrip_is_sorted_unique(case):
    """validators_of_mask(mask_of_validators(v)) == tuple(sorted(set(v))).

    Bit order *is* ascending id order — the invariant that lets the RBC
    layer build certificate signer tuples straight from ack masks and
    stay byte-identical to the historical sorted-set construction.
    """
    _, size, validators = case
    mask = StakeVector.mask_of_validators(validators)
    ids = StakeVector.validators_of_mask(mask)
    assert ids == tuple(sorted(set(validators)))
    assert StakeVector.mask_of_validators(ids) == mask


@given(
    st.sampled_from(DISTRIBUTIONS),
    st.integers(min_value=2, max_value=32),
)
@settings(max_examples=60, deadline=None)
def test_full_committee_and_empty_set(kind, size):
    vector = vector_for(kind, size)
    full = (1 << size) - 1
    assert vector.mask_stake(full) == vector.total
    assert vector.mask_has_quorum(full)
    assert vector.mask_stake(0) == 0
    assert not vector.mask_has_quorum(0)


class TestMaskErrorPaths:
    def test_out_of_committee_bit_raises(self):
        vector = vector_for("uniform", 4)
        with pytest.raises(CommitteeError):
            vector.mask_stake(1 << 4)
        with pytest.raises(CommitteeError):
            vector.mask_has_quorum(1 << 10)

    def test_negative_mask_raises(self):
        vector = vector_for("geometric", 4)
        with pytest.raises(CommitteeError):
            vector.mask_stake(-1)

    def test_negative_validator_raises(self):
        with pytest.raises(CommitteeError):
            StakeVector.mask_of_validators([0, -1])


def test_verdicts_leave_the_vector_unchanged():
    """A verdict is computed, not remembered: asking leaves no state behind."""
    vector = vector_for("geometric", 8)

    def state():
        return {slot: copy.copy(getattr(vector, slot)) for slot in StakeVector.__slots__}

    before = state()
    for mask in range(1 << 8):
        verdict = vector.mask_stake(mask) >= vector.quorum
        assert vector.mask_has_quorum(mask) == verdict
        assert vector.mask_has_quorum(mask) == verdict
        signers = StakeVector.validators_of_mask(mask)
        assert vector.signer_tuple_has_quorum(signers) == verdict
    assert state() == before
