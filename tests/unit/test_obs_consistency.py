"""Unit tests for committed-prefix consistency.

``repro.obs.consistency`` compares ordering-checkpoint chains within a
run (safety: all validators agree) and across runs (two variants commit
consistent prefixes even when their post-divergence histories differ).
It is pure post-processing, so every behaviour is pinned against small
synthetic inputs.
"""

from repro.obs.consistency import (
    PrefixComparison,
    check_run_consistency,
    checkpoint_chain,
    compare_prefixes,
)


class TestCheckpointChain:
    def test_final_appended_when_it_extends(self):
        chain = checkpoint_chain([(64, "aa"), (128, "bb")], (150, "cc"))
        assert chain == [(64, "aa"), (128, "bb"), (150, "cc")]

    def test_final_not_appended_at_or_below_last_checkpoint(self):
        assert checkpoint_chain([(64, "aa")], (64, "aa")) == [(64, "aa")]
        assert checkpoint_chain([(64, "aa")], (50, "xx")) == [(64, "aa")]

    def test_zero_final_and_empty_checkpoints(self):
        assert checkpoint_chain([], (0, "")) == []
        assert checkpoint_chain([], (10, "aa")) == [(10, "aa")]
        assert checkpoint_chain([], None) == []


class TestComparePrefixes:
    def test_identical_chains_are_consistent(self):
        chain = [(64, "aa"), (128, "bb")]
        comparison = compare_prefixes(chain, chain)
        assert comparison.consistent
        assert comparison.common_prefix == 128
        assert comparison.first_divergence is None

    def test_prefix_of_the_other_is_consistent(self):
        comparison = compare_prefixes([(64, "aa")], [(64, "aa"), (128, "bb")])
        assert comparison.consistent
        assert comparison.common_prefix == 64

    def test_contradiction_at_aligned_count_is_divergence(self):
        comparison = compare_prefixes(
            [(64, "aa"), (128, "bb")], [(64, "aa"), (128, "XX")]
        )
        assert not comparison.consistent
        assert comparison.first_divergence == 128
        assert comparison.common_prefix == 64

    def test_unaligned_counts_cannot_contradict(self):
        """Counts present in only one chain are skipped, not compared."""
        comparison = compare_prefixes([(64, "aa"), (100, "zz")], [(64, "aa"), (128, "bb")])
        assert comparison.consistent
        assert comparison.common_prefix == 64

    def test_describe_mentions_divergence(self):
        diverged = compare_prefixes([(64, "aa")], [(64, "XX")])
        assert isinstance(diverged, PrefixComparison)
        assert "diverge" in diverged.describe().lower()
        agreed = compare_prefixes([(64, "aa")], [(64, "aa")])
        assert "diverge" not in agreed.describe().lower() or agreed.consistent


class TestRunConsistency:
    def test_agreeing_validators_produce_no_violations(self):
        digests = {0: (100, "ff"), 1: (100, "ff"), 2: (80, "ee")}
        checkpoints = {0: [(64, "aa")], 1: [(64, "aa")], 2: [(64, "aa")]}
        assert check_run_consistency(digests, checkpoints) == []

    def test_contradicting_validator_is_reported(self):
        digests = {0: (100, "ff"), 1: (100, "ff")}
        checkpoints = {0: [(64, "aa")], 1: [(64, "XX")]}
        violations = check_run_consistency(digests, checkpoints)
        assert len(violations) == 1
        assert "64" in violations[0]

    def test_validators_that_ordered_nothing_are_trivially_consistent(self):
        digests = {0: (100, "ff"), 1: (0, "")}
        checkpoints = {0: [(64, "aa")], 1: []}
        assert check_run_consistency(digests, checkpoints) == []

