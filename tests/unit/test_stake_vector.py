"""Unit tests for the vectorized stake helpers (the quorum hot path)."""

import pytest

from repro.committee import Committee
from repro.committee.stake import StakeVector, geometric_stake
from repro.errors import CommitteeError


class TestStakeVector:
    def test_totals_and_thresholds_match_committee(self):
        for stake in (None, geometric_stake(7)):
            committee = Committee.build(7, stake=stake)
            vector = committee.stake_vector
            assert vector.total == committee.total_stake
            assert vector.quorum == committee.quorum_threshold
            assert vector.validity == committee.validity_threshold
            assert vector.stakes == tuple(
                committee.stake_of(validator) for validator in committee.validators
            )

    def test_signer_quorum_matches_has_quorum(self):
        committee = Committee.build(7, stake=geometric_stake(7))
        vector = committee.stake_vector
        for signers in [(0, 1), (0, 1, 2, 3, 4), tuple(range(7)), (5, 6)]:
            assert vector.signer_tuple_has_quorum(signers) == committee.has_quorum(signers)
        # Memoized: the same tuple answers from cache.
        assert vector.signer_tuple_has_quorum((0, 1, 2, 3, 4))

    def test_duplicate_signers_cannot_inflate_stake(self):
        # 3f+1 = 4 with equal stake: quorum needs 3 distinct validators.
        vector = StakeVector((1, 1, 1, 1))
        assert not vector.signer_tuple_has_quorum((0, 0, 0))
        assert not vector.signer_tuple_has_quorum((1, 1, 0))
        assert vector.signer_tuple_has_quorum((0, 1, 2))

    def test_an_empty_vector_is_refused(self):
        with pytest.raises(CommitteeError):
            StakeVector(())

    @pytest.mark.parametrize(
        "signers",
        [
            (), (0, 1, 2), (0, 1, 2, 3, 4), tuple(range(7)), (4, 5, 6, 5),
            (-1, 0, 1), (0, 1, 7), (7,), (1 << 70,), (-(1 << 70), 1, 2),
            (True, 1, 2), (1.0, 2, 3), (float("nan"),), (1, 2, float("nan")), (float("nan"), 1, 2),
            ("a",), (-1, "a"), (1, "a"), ("a", -1), (None,), (0, None), ((1,),), ({},), 5, None, "abc",
        ],
        ids=repr,
    )
    def test_signer_bounds_refuse_and_raise_as_one_comparison_per_signer_did(self, signers):
        """Plain ints are bounded by their extremes; the verdict, or the
        exception class, is what comparing each signer in turn gives."""

        def one_by_one(vector):
            {}.get(signers)
            if not all(0 <= signer < vector.size for signer in signers):
                return False
            return vector.mask_has_quorum(vector.mask_of_validators(signers))

        outcomes = []
        for check in (one_by_one, lambda vector: vector.signer_tuple_has_quorum(signers)):
            try:
                outcomes.append(("value", check(StakeVector((1,) * 7))))
            except Exception as error:  # noqa: BLE001 - the class is the outcome
                outcomes.append(("raised", type(error)))
        assert outcomes[0] == outcomes[1]

    def test_uniform_stake_detection(self):
        assert StakeVector((3, 3, 3)).uniform_stake == 3
        assert StakeVector((3, 2, 3)).uniform_stake == 0


class TestEdgeQuorumMemo:
    def test_verdict_matches_direct_check_and_caches(self):
        committee = Committee.build(4)
        digest = b"\x01" * 32
        assert committee.edge_quorum_verdict(digest, (0, 1, 2)) is True
        # Cached by digest: the sources are not even consulted on a hit.
        assert committee.edge_quorum_verdict(digest, ()) is True
        assert committee.edge_quorum_verdict(b"\x02" * 32, (0,)) is False
