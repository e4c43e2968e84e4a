"""Simulated key pairs for validators.

A key pair is derived deterministically from a validator index and an
optional seed so that simulations are reproducible.  The private scalar is
simply a keyed digest; the public key is a digest of the private scalar.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.crypto.hashing import digest_of
from repro.types import ValidatorId


@dataclasses.dataclass(frozen=True)
class PublicKey:
    """Public half of a simulated key pair."""

    validator: ValidatorId
    material: bytes

    def short(self) -> str:
        """Return a short printable key fingerprint."""
        return self.material.hex()[:12]


@dataclasses.dataclass(frozen=True)
class KeyPair:
    """A validator's key pair; only its public half reaches the committee."""

    public: PublicKey
    secret: bytes

    @property
    def validator(self) -> ValidatorId:
        return self.public.validator


def generate_keypair(validator: ValidatorId, seed: int = 0) -> KeyPair:
    """Deterministically derive the key pair of ``validator`` for ``seed``."""
    secret = digest_of("hammerhead-secret", validator, seed)
    public_material = digest_of("hammerhead-public", secret)
    public = PublicKey(validator=validator, material=public_material)
    return KeyPair(public=public, secret=secret)


def keypairs_for_committee(size: int, seed: int = 0) -> Dict[ValidatorId, KeyPair]:
    """Generate one key pair per validator index in ``range(size)``."""
    return {index: generate_keypair(index, seed) for index in range(size)}
