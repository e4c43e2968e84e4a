"""Deterministic content digests.

Digests provide content addressing for DAG vertices and transaction
batches.  They are computed over a canonical serialization so that two
structurally equal objects always hash to the same digest, regardless of
the process or the insertion order of dictionaries.
"""

from __future__ import annotations

import hashlib
from typing import Any

# A digest is a 32-byte SHA-256 output.
Digest = bytes


def _canonical_bytes(value: Any) -> bytes:
    """Serialize ``value`` into a canonical byte string.

    Supports the small universe of types used by protocol messages:
    ``None``, booleans, integers, floats, strings, bytes, and (nested)
    lists, tuples, sets, frozensets, and dictionaries thereof.  Sets and
    dictionaries are serialized in sorted order to guarantee determinism.
    """
    if value is None:
        return b"N"
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        return b"I" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"F" + repr(value).encode("ascii")
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return b"S" + str(len(encoded)).encode("ascii") + b":" + encoded
    if isinstance(value, (bytes, bytearray)):
        return b"Y" + str(len(value)).encode("ascii") + b":" + bytes(value)
    if isinstance(value, (list, tuple)):
        parts = [_canonical_bytes(item) for item in value]
        return b"L(" + b",".join(parts) + b")"
    if isinstance(value, (set, frozenset)):
        parts = sorted(_canonical_bytes(item) for item in value)
        return b"E(" + b",".join(parts) + b")"
    if isinstance(value, dict):
        parts = sorted(
            _canonical_bytes(key) + b"=" + _canonical_bytes(item)
            for key, item in value.items()
        )
        return b"D(" + b",".join(parts) + b")"
    raise TypeError(f"cannot canonicalize value of type {type(value)!r}")


def digest_of(*values: Any) -> Digest:
    """Return the SHA-256 digest of the canonical serialization of ``values``."""
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(_canonical_bytes(value))
    return hasher.digest()


def vertex_digest(
    round_number: int,
    source: int,
    edge_pairs: Any,
    block_length: int,
) -> Digest:
    """Digest of a vertex's canonical fields, encoded without recursion.

    Produces exactly ``digest_of(round_number, source, tuple(edge_pairs),
    block_length)`` — the generic serializer's output for this shape is
    pinned by a unit test — but builds the preimage with direct byte
    formatting.  One digest is computed per proposed vertex, and the
    recursive generic path dominated proposal construction at large
    committees.  ``edge_pairs`` must be the sorted tuple of
    ``(round, source)`` integer pairs.
    """
    edges_encoded = b",".join(b"L(I%d,I%d)" % pair for pair in edge_pairs)
    preimage = b"I%dI%dL(%b)I%d" % (round_number, source, edges_encoded, block_length)
    return hashlib.sha256(preimage).digest()


def evict_oldest_half(entries: dict, limit: int) -> None:
    """Shared eviction policy for the hot-path bounded memos.

    Drops the oldest half (by insertion order, which Python dicts
    preserve) once ``limit`` is reached, so a memo never takes a
    full-rewarm hit mid-run the way a wholesale ``clear()`` would.
    Callers keep plain dicts — lookups stay a raw ``dict.get`` — and
    only the rare eviction path shares code.
    """
    if len(entries) >= limit:
        # Insertion order IS the eviction policy ("oldest
        # half"), and dicts preserve it by language guarantee.
        for stale in list(entries)[: limit // 2]:
            del entries[stale]


class DigestMemo:
    """A bounded process-wide memo for recomputed protocol digests.

    The broadcast layer re-derives the same domain-separated digest for
    one ``(origin, round, payload)`` triple at every one of the ``n``
    recipients of a certificate fan-out (and again for every certificate
    in a batch).  The canonical encoding and the SHA-256 pass are pure
    functions of the key, so the memo is shared across validator
    instances — and across experiments, because the key embeds the
    payload's content fingerprint.

    Eviction wipes the oldest half by insertion order (Python dicts
    preserve it), which keeps the common case a single dict lookup
    instead of the sorted-scan eviction the per-node caches used before.
    """

    __slots__ = ("_entries", "limit", "hits", "misses")

    def __init__(self, limit: int = 131072) -> None:
        self._entries: dict = {}
        self.limit = limit
        # Process-wide hit/miss tallies surfaced by the instrumentation
        # counters.  Because the memo is shared across experiments (and
        # across sweep workers with unrelated lifetimes), these are
        # observability-only: never fold them into digests or diffs.
        self.hits = 0
        self.misses = 0

    def get(self, key: Any) -> Any:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: Any, value: Any) -> Any:
        entries = self._entries
        evict_oldest_half(entries, self.limit)
        entries[key] = value
        return value

    def __len__(self) -> int:
        return len(self._entries)


# Memo for the certified-broadcast digests, keyed by
# (origin, round, payload fingerprint); see
# :meth:`repro.rbc.certified.CertifiedBroadcast._broadcast_digest`.
BROADCAST_DIGEST_MEMO = DigestMemo()


def digest_hex(*values: Any) -> str:
    """Return the hexadecimal form of :func:`digest_of`."""
    return digest_of(*values).hex()
