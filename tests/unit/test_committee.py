"""Unit tests for committees and stake distributions."""

import pytest

from repro.committee import Committee, equal_stake, geometric_stake, zipfian_stake
from repro.committee.committee import DEFAULT_REGIONS
from repro.crypto.keys import keypairs_for_committee
from repro.errors import CommitteeError


class TestStakeDistributions:
    def test_equal_stake(self):
        distribution = equal_stake(5, per_validator=3)
        assert distribution.size == 5
        assert sum(distribution.stakes) == 15
        assert distribution.stake_of(2) == 3

    def test_equal_stake_requires_positive_size(self):
        with pytest.raises(CommitteeError):
            equal_stake(0)

    def test_geometric_stake_is_decreasing(self):
        distribution = geometric_stake(8, ratio=0.8)
        stakes = distribution.stakes
        assert all(earlier >= later for earlier, later in zip(stakes, stakes[1:]))

    def test_geometric_stake_is_always_positive(self):
        distribution = geometric_stake(40, ratio=0.5)
        assert all(stake >= 1 for stake in distribution.stakes)

    def test_geometric_stake_rejects_bad_ratio(self):
        with pytest.raises(CommitteeError):
            geometric_stake(5, ratio=0.0)
        with pytest.raises(CommitteeError):
            geometric_stake(5, ratio=1.5)

    def test_zipfian_stake_is_decreasing(self):
        stakes = zipfian_stake(10).stakes
        assert all(earlier >= later for earlier, later in zip(stakes, stakes[1:]))

    def test_zipfian_rejects_negative_exponent(self):
        with pytest.raises(CommitteeError):
            zipfian_stake(5, exponent=-1.0)

    def test_stake_must_be_positive(self):
        from repro.committee.stake import StakeDistribution

        with pytest.raises(CommitteeError):
            StakeDistribution((1, 0, 1))

    def test_stake_distribution_needs_members(self):
        from repro.committee.stake import StakeDistribution

        with pytest.raises(CommitteeError):
            StakeDistribution(())


class TestCommitteeConstruction:
    def test_build_creates_indexed_members(self, committee10):
        assert committee10.size == 10
        assert committee10.validators == tuple(range(10))

    def test_members_spread_over_paper_regions(self):
        committee = Committee.build(26)
        used_regions = {committee.region_of(validator).name for validator in committee.validators}
        assert used_regions == set(DEFAULT_REGIONS)

    def test_region_distribution_is_balanced(self):
        committee = Committee.build(26)
        counts = {}
        for validator in committee.validators:
            name = committee.region_of(validator).name
            counts[name] = counts.get(name, 0) + 1
        assert all(count == 2 for count in counts.values())

    def test_build_requires_positive_size(self):
        with pytest.raises(CommitteeError):
            Committee.build(0)

    def test_stake_distribution_size_must_match(self):
        with pytest.raises(CommitteeError):
            Committee.build(5, stake=equal_stake(4))

    def test_unknown_validator_rejected(self, committee4):
        with pytest.raises(CommitteeError):
            committee4.info(99)

    def test_stake_and_region_of_an_unknown_validator_rejected(self, committee4):
        for validator in (-1, 4):
            with pytest.raises(CommitteeError):
                committee4.stake_of(validator)
            with pytest.raises(CommitteeError):
                committee4.region_of(validator)
            with pytest.raises(CommitteeError):
                committee4.stake([0, validator])

    def test_contains(self, committee4):
        assert 0 in committee4
        assert 3 in committee4
        assert 4 not in committee4

    def test_public_keys_are_distinct(self, committee10):
        keys = {committee10.info(validator).public_key.material for validator in committee10.validators}
        assert len(keys) == 10

    def test_keypairs_match_public_keys(self):
        committee = Committee.build(4, seed=5)
        keypairs = keypairs_for_committee(4, seed=5)
        for validator in committee.validators:
            assert keypairs[validator].public == committee.info(validator).public_key


class TestCommitteeStakeArithmetic:
    def test_equal_stake_thresholds(self, committee10):
        assert committee10.total_stake == 10
        assert committee10.quorum_threshold == 7
        assert committee10.validity_threshold == 4
        assert committee10.max_faulty == 3

    def test_paper_committee_fault_tolerance(self):
        # The paper's committees of 10, 50, and 100 tolerate 3, 16, and 33.
        assert Committee.build(10).max_faulty == 3
        assert Committee.build(50).max_faulty == 16
        assert Committee.build(100).max_faulty == 33

    def test_stake_of_subset(self, committee10):
        assert committee10.stake([0, 1, 2]) == 3
        assert committee10.stake([]) == 0

    def test_stake_counts_duplicates_once(self, committee10):
        assert committee10.stake([1, 1, 1]) == 1

    def test_has_quorum(self, committee10):
        assert committee10.has_quorum(range(7))
        assert not committee10.has_quorum(range(6))

    def test_edge_quorum_mask_agrees_with_the_sources(self):
        committee = Committee.build(4)
        for index, sources in enumerate([(0, 1), (0, 1, 2), (0, 1, 2, 3), (3,)]):
            mask = sum(1 << source for source in sources)
            with_mask = committee.edge_quorum_verdict(bytes([index, 0]), sources, mask)
            without = committee.edge_quorum_verdict(bytes([index, 1]), sources)
            assert with_mask == without == committee.has_quorum(sources)

    def test_an_edge_mask_outside_the_committee_falls_back_to_the_sources(self):
        committee = Committee.build(4)
        with pytest.raises(CommitteeError):
            committee.edge_quorum_verdict(b"stray", (0, 1, 7), mask=0b10000011)
        assert committee.edge_quorum_cache_size() == 0

    def test_weighted_stake_quorum(self):
        committee = Committee.build(4, stake=geometric_stake(4, ratio=0.5, scale=8))
        # Stakes are 8, 4, 2, 1 -> total 15, quorum 11, validity 6.
        assert committee.total_stake == 15
        assert committee.quorum_threshold == 11
        assert committee.has_quorum([0, 1])  # 12 >= 11
        assert not committee.has_quorum([1, 2, 3])  # 7 < 11
