"""Simulated cryptography substrate: digests and validator keys.

The production HammerHead implementation relies on ``fastcrypto`` for
elliptic-curve signatures.  Signatures are not on the evaluated path of
the paper (the evaluation measures consensus latency and throughput), so
this reproduction models none: a certificate is the set of its signers,
and the only cryptography that runs is SHA-256 digests (vertex and
ordering digests) and the per-validator public keys
:meth:`~repro.committee.Committee.build` derives from validator indices.
"""

from repro.crypto.hashing import Digest, digest_of, digest_hex
from repro.crypto.keys import KeyPair, PublicKey, generate_keypair, keypairs_for_committee

__all__ = [
    "Digest",
    "digest_of",
    "digest_hex",
    "KeyPair",
    "PublicKey",
    "generate_keypair",
    "keypairs_for_committee",
]
