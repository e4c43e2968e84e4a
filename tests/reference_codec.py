"""Reference decoder for the netexec wire codec: the oracle of the test tree.

This is the recursive one-value-at-a-time decoder ``repro.netexec.codec``
shipped before it grew layout-compiled decoders for the propose / ack /
certificate frames, kept here so that every byte string — valid,
truncated, spliced or hostile — has an independent verdict to compare
the production decoder against
(``tests/property/test_prop_codec_differential.py``): equal values of
equal type, or the same exception class with the same message.

It shares no decoding code with production.  What it imports from
``repro.netexec.codec`` is what defines the wire *contract* rather than
how bytes are walked: the error type, the ``Hello`` frame, and the two
field validators (``_build_vertex`` recomputes a decoded vertex's
digest; the differential suite checks that production still calls it).
The bounds on the validator ids and rounds a vertex names are written
out again, in the same words, ahead of ``_build_vertex``: a production
decoder that drops one disagrees with this one.

It also holds the reference *encoder*: the one-value-at-a-time encoder
the codec shipped while a vertex kept its edges in a ``frozenset``, which
sorts every set by the encoded bytes of its items.  Its output is the
golden wire (``tests/property/test_prop_codec_golden.py``): production
writes a vertex's edges in the order the vertex keeps them and must still
produce these bytes.
The type-code table below is written out again on purpose: a code
retired, renumbered or re-fielded in ``_SPECS`` shows up as a mismatch.
``tests/property/test_prop_codec_differential.py`` asserts the import
allowlist.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Tuple

from repro.dag.vertex import Vertex
from repro.netexec.codec import (
    CodecError,
    Hello,
    _build_fetch_request,
    _build_vertex,
)
from repro.node.messages import ConsensusSnapshot, FetchRequest, FetchResponse
from repro.rbc.messages import (
    AckMessage,
    BroadcastMessage,
    CertificateBatch,
    CertificateMessage,
    ProposeMessage,
)
from repro.schedule.base import LeaderSchedule
from repro.types import VertexId
from repro.workload.transactions import Transaction

_TRUNCATED = "truncated value: length field exceeds the remaining body"

_unpack_i64 = struct.Struct(">q").unpack_from
_unpack_f64 = struct.Struct(">d").unpack_from
_unpack_count = struct.Struct(">I").unpack_from

_INT, _FLOAT, _STR, _BYTES = b"IRSY"
_TUPLE, _FROZENSET, _DICT, _OBJECT = b"LEDO"
_NONE, _TRUE, _FALSE = b"NTF"

# Validator ids a vertex may name: the 1,024 a 128-byte fetch mask holds.
_MAX_SOURCES = 1024


def _bounded_vertex(values: tuple) -> Vertex:
    """Refuse a vertex naming a source outside the validator ids, before
    anything can shift by it, or a round that is not a non-negative
    integer; every other verdict is ``_build_vertex``'s."""
    vertex_id, edges = values[0], values[1]
    if isinstance(vertex_id, VertexId) and isinstance(edges, frozenset):
        for named in (vertex_id, *edges):
            source = getattr(named, "source", None)
            if type(source) is not int or not 0 <= source < _MAX_SOURCES:
                raise CodecError(
                    f"vertex names a source outside the validator ids [0, {_MAX_SOURCES})"
                )
            if type(named.round) is not int or named.round < 0:
                raise CodecError("vertex names a round that is not a non-negative integer")
    return _build_vertex(values)


def _keywords(cls: type, fields: Tuple[str, ...]) -> Callable[[tuple], Any]:
    return lambda values: cls(**dict(zip(fields, values)))


_BROADCAST = ("origin", "round", "digest")

# code -> (class, number of wire fields, constructor from the field tuple)
_TYPES: Dict[int, Tuple[type, int, Callable[[tuple], Any]]] = {
    1: (Hello, 1, _keywords(Hello, ("node_id",))),
    2: (VertexId, 2, lambda values: VertexId(*values)),
    3: (Vertex, 5, _bounded_vertex),
    4: (Transaction, 6, lambda values: Transaction(*values)),
    5: (LeaderSchedule, 3, _keywords(LeaderSchedule, ("epoch", "initial_round", "slots"))),
    6: (
        ConsensusSnapshot,
        7,
        _keywords(
            ConsensusSnapshot,
            (
                "last_ordered_anchor_round",
                "gc_round",
                "schedules",
                "scores",
                "commits_in_epoch",
                "ordered_vertices",
                "vote_accounting",
            ),
        ),
    ),
    7: (FetchRequest, 4, _build_fetch_request),
    8: (
        FetchResponse,
        4,
        _keywords(
            FetchResponse, ("responder", "vertices", "responder_gc_round", "snapshot")
        ),
    ),
    9: (BroadcastMessage, 3, _keywords(BroadcastMessage, _BROADCAST)),
    10: (ProposeMessage, 4, _keywords(ProposeMessage, _BROADCAST + ("payload",))),
    11: (AckMessage, 4, _keywords(AckMessage, _BROADCAST + ("voter",))),
    12: (
        CertificateMessage,
        5,
        _keywords(CertificateMessage, _BROADCAST + ("payload", "signers")),
    ),
    13: (CertificateBatch, 4, _keywords(CertificateBatch, _BROADCAST + ("certificates",))),
}


def _count_at(data: bytes, offset: int) -> Tuple[int, int]:
    try:
        (count,) = _unpack_count(data, offset)
    except struct.error:
        raise CodecError(_TRUNCATED) from None
    offset += 4
    if count > len(data) - offset:
        raise CodecError("length field exceeds the remaining body")
    return count, offset


def _decode_at(data: bytes, offset: int) -> Tuple[Any, int]:
    try:
        tag = data[offset]
    except IndexError:
        raise CodecError(_TRUNCATED) from None
    offset += 1
    if tag == _INT:
        try:
            return _unpack_i64(data, offset)[0], offset + 8
        except struct.error:
            raise CodecError(_TRUNCATED) from None
    if tag == _OBJECT:
        try:
            code = data[offset]
        except IndexError:
            raise CodecError(_TRUNCATED) from None
        offset += 1
        if code not in _TYPES:
            raise CodecError(f"unknown wire type code {code}")
        cls, field_count, build = _TYPES[code]
        values = []
        for _ in range(field_count):
            value, offset = _decode_at(data, offset)
            values.append(value)
        try:
            return build(tuple(values)), offset
        except CodecError:
            raise
        except Exception as error:
            raise CodecError(
                f"cannot reconstruct {cls.__name__} from wire fields: {error}"
            ) from error
    if tag == _TUPLE or tag == _FROZENSET:
        count, offset = _count_at(data, offset)
        items = []
        for _ in range(count):
            value, offset = _decode_at(data, offset)
            items.append(value)
        if tag == _TUPLE:
            return tuple(items), offset
        decoded = frozenset(items)
        if len(decoded) != count:
            raise CodecError("duplicate items in encoded set")
        return decoded, offset
    if tag == _FLOAT:
        try:
            return _unpack_f64(data, offset)[0], offset + 8
        except struct.error:
            raise CodecError(_TRUNCATED) from None
    if tag == _STR or tag == _BYTES:
        count, offset = _count_at(data, offset)
        end = offset + count
        raw = data[offset:end]
        if tag == _BYTES:
            return raw, end
        try:
            return raw.decode("utf-8"), end
        except UnicodeDecodeError as error:
            raise CodecError(f"invalid utf-8 in string value: {error}") from error
    if tag == _NONE:
        return None, offset
    if tag == _TRUE:
        return True, offset
    if tag == _FALSE:
        return False, offset
    if tag == _DICT:
        count, offset = _count_at(data, offset)
        result = {}
        for _ in range(count):
            key, offset = _decode_at(data, offset)
            result[key], offset = _decode_at(data, offset)
        if len(result) != count:
            raise CodecError("duplicate keys in encoded dict")
        return result, offset
    raise CodecError(f"unknown value tag {bytes((tag,))!r}")


# -- the reference encoder -------------------------------------------------------------

# The wire fields of each registered type, in order.
_FIELDS: Dict[type, Callable[[Any], tuple]] = {
    Hello: lambda v: (v.node_id,),
    VertexId: lambda v: (v.round, v.source),
    Vertex: lambda v: (v.id, frozenset(v.edges), tuple(v.block), v.digest, v.created_at),
    Transaction: lambda v: (
        v.tx_id, v.client_id, v.submitted_at, v.target_validator, v.kind, v.payload_bytes
    ),
    LeaderSchedule: lambda v: (v.epoch, v.initial_round, v.slots),
    ConsensusSnapshot: lambda v: (
        v.last_ordered_anchor_round,
        v.gc_round,
        v.schedules,
        v.scores,
        v.commits_in_epoch,
        v.ordered_vertices,
        v.vote_accounting,
    ),
    FetchRequest: lambda v: (
        v.requester,
        v.missing,
        v.horizon,
        tuple((round_number, mask.to_bytes((mask.bit_length() + 7) // 8, "big")) for round_number, mask in v.held),
    ),
    FetchResponse: lambda v: (v.responder, v.vertices, v.responder_gc_round, v.snapshot),
    BroadcastMessage: lambda v: (v.origin, v.round, v.digest),
    ProposeMessage: lambda v: (v.origin, v.round, v.digest, v.payload),
    AckMessage: lambda v: (v.origin, v.round, v.digest, v.voter),
    CertificateMessage: lambda v: (v.origin, v.round, v.digest, v.payload, v.signers),
    CertificateBatch: lambda v: (v.origin, v.round, v.digest, v.certificates),
}
_CODES: Dict[type, int] = {cls: code for code, (cls, _, _) in _TYPES.items()}


def encode(value: Any) -> bytes:
    """The canonical bytes of ``value``, every set sorted by encoded item."""
    if value is None:
        return b"N"
    if value is True:
        return b"T"
    if value is False:
        return b"F"
    if type(value) is int:
        return b"I" + struct.pack(">q", value)
    if type(value) is float:
        return b"R" + struct.pack(">d", value)
    if type(value) is str:
        raw = value.encode("utf-8")
        return b"S" + struct.pack(">I", len(raw)) + raw
    if type(value) is bytes:
        return b"Y" + struct.pack(">I", len(value)) + value
    if type(value) in (tuple, list):
        return b"L" + struct.pack(">I", len(value)) + b"".join(map(encode, value))
    if type(value) in (frozenset, set):
        return b"E" + struct.pack(">I", len(value)) + b"".join(sorted(map(encode, value)))
    if type(value) is dict:
        pairs = sorted((encode(key), encode(item)) for key, item in value.items())
        return b"D" + struct.pack(">I", len(value)) + b"".join(map(b"".join, pairs))
    fields = _FIELDS[type(value)](value)
    assert len(fields) == _TYPES[_CODES[type(value)]][1]
    return b"O" + bytes((_CODES[type(value)],)) + b"".join(map(encode, fields))


def decode(body: bytes) -> Any:
    """Decode one canonical value; the body must be consumed exactly."""
    value, offset = _decode_at(body, 0)
    if offset != len(body):
        raise CodecError(
            f"frame body has {len(body) - offset} trailing bytes after the value"
        )
    return value
