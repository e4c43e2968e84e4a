"""Unit tests for repro.types."""

from repro.types import (
    VertexId,
    is_anchor_round,
    next_anchor_round,
    quorum_threshold,
    validity_threshold,
)


class TestRoundClassification:
    def test_round_zero_is_not_an_anchor_round(self):
        assert not is_anchor_round(0)

    def test_even_rounds_are_anchor_rounds(self):
        assert is_anchor_round(2)
        assert is_anchor_round(4)
        assert is_anchor_round(100)

    def test_odd_rounds_are_not_anchor_rounds(self):
        assert not is_anchor_round(1)
        assert not is_anchor_round(3)
        assert not is_anchor_round(99)


class TestNextAnchorRound:
    def test_rounds_before_the_first_anchor_map_to_round_two(self):
        assert next_anchor_round(0) == 2
        assert next_anchor_round(1) == 2

    def test_an_anchor_round_is_its_own_next_anchor(self):
        assert next_anchor_round(2) == 2
        assert next_anchor_round(40) == 40

    def test_a_vote_round_rounds_up_to_the_next_anchor(self):
        assert next_anchor_round(3) == 4
        assert next_anchor_round(99) == 100

    def test_it_is_the_first_anchor_round_at_or_after_the_round(self):
        for round_number in range(60):
            anchor = next_anchor_round(round_number)
            assert is_anchor_round(anchor) and anchor >= round_number
            assert not any(is_anchor_round(earlier) for earlier in range(round_number, anchor))


class TestStakeThresholds:
    def test_quorum_threshold_for_equal_stake(self):
        # n = 3f + 1 validators of stake 1: quorum must be 2f + 1.
        for f in range(1, 10):
            total = 3 * f + 1
            assert quorum_threshold(total) == 2 * f + 1

    def test_validity_threshold_for_equal_stake(self):
        for f in range(1, 10):
            total = 3 * f + 1
            assert validity_threshold(total) == f + 1

    def test_quorum_and_validity_always_intersect(self):
        # Any quorum and any validity set must share stake: 2f+1 + f+1 > n.
        for total in range(1, 200):
            assert quorum_threshold(total) + validity_threshold(total) > total

    def test_two_quorums_always_intersect_in_an_honest_party(self):
        # 2 * (2f+1) - n >= f + 1 for n = 3f + 1.
        for f in range(1, 30):
            total = 3 * f + 1
            overlap = 2 * quorum_threshold(total) - total
            assert overlap >= validity_threshold(total) - 1
            assert overlap >= f + 1


class TestVertexId:
    def test_equality_is_structural(self):
        assert VertexId(3, 1) == VertexId(3, 1)
        assert VertexId(3, 1) != VertexId(3, 2)
        assert VertexId(3, 1) != VertexId(4, 1)

    def test_ordering_is_by_round_then_source(self):
        assert VertexId(2, 5) < VertexId(3, 0)
        assert VertexId(2, 1) < VertexId(2, 2)

    def test_usable_as_dict_key(self):
        mapping = {VertexId(1, 0): "a", VertexId(1, 1): "b"}
        assert mapping[VertexId(1, 0)] == "a"
