"""Unit tests for the simulated cryptography substrate."""

import pytest

from repro.crypto.hashing import digest_hex, digest_of
from repro.crypto.keys import generate_keypair, keypairs_for_committee


class TestDigests:
    def test_digest_is_deterministic(self):
        assert digest_of("hello", 42) == digest_of("hello", 42)

    def test_digest_distinguishes_values(self):
        assert digest_of("hello", 42) != digest_of("hello", 43)

    def test_digest_distinguishes_types(self):
        assert digest_of(1) != digest_of("1")
        assert digest_of(True) != digest_of(1)

    def test_digest_of_dict_is_order_independent(self):
        assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})

    def test_digest_of_set_is_order_independent(self):
        assert digest_of({3, 1, 2}) == digest_of({2, 3, 1})

    def test_digest_of_list_is_order_dependent(self):
        assert digest_of([1, 2]) != digest_of([2, 1])

    def test_digest_length_is_32_bytes(self):
        assert len(digest_of("x")) == 32

    def test_digest_hex_matches_digest(self):
        assert digest_hex("x") == digest_of("x").hex()

    def test_nested_structures(self):
        value = {"edges": [(1, 2), (3, 4)], "block": b"abc", "none": None}
        assert digest_of(value) == digest_of(dict(value))

    def test_unsupported_type_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            digest_of(Opaque())

    def test_canonical_fields_protocol(self):
        class WithFields:
            def canonical_fields(self):
                return (1, "a")

        assert digest_of(WithFields()) == digest_of((1, "a"))


class TestKeys:
    def test_keypair_is_deterministic_per_validator_and_seed(self):
        assert generate_keypair(3, seed=1) == generate_keypair(3, seed=1)

    def test_different_validators_have_different_keys(self):
        assert generate_keypair(1).public != generate_keypair(2).public

    def test_different_seeds_have_different_keys(self):
        assert generate_keypair(1, seed=0).public != generate_keypair(1, seed=1).public

    def test_committee_keypairs_cover_all_indices(self):
        keypairs = keypairs_for_committee(5, seed=2)
        assert sorted(keypairs) == [0, 1, 2, 3, 4]
        assert all(keypairs[index].validator == index for index in keypairs)

    def test_public_key_short_fingerprint(self):
        assert len(generate_keypair(0).public.short()) == 12

