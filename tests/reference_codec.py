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
    PiggybackedPropose,
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


def _keywords(cls: type, fields: Tuple[str, ...]) -> Callable[[tuple], Any]:
    return lambda values: cls(**dict(zip(fields, values)))


_BROADCAST = ("origin", "round", "digest")

# code -> (class, number of wire fields, constructor from the field tuple)
_TYPES: Dict[int, Tuple[type, int, Callable[[tuple], Any]]] = {
    1: (Hello, 1, _keywords(Hello, ("node_id",))),
    2: (VertexId, 2, lambda values: VertexId(*values)),
    3: (Vertex, 5, _build_vertex),
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
    16: (
        PiggybackedPropose,
        5,
        _keywords(PiggybackedPropose, _BROADCAST + ("payload", "certificates")),
    ),
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


def decode(body: bytes) -> Any:
    """Decode one canonical value; the body must be consumed exactly."""
    value, offset = _decode_at(body, 0)
    if offset != len(body):
        raise CodecError(
            f"frame body has {len(body) - offset} trailing bytes after the value"
        )
    return value
