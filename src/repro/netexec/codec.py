"""Canonical length-prefixed wire codec for the protocol messages.

Every value the validators exchange — the broadcast-layer messages in
``repro/rbc/messages.py``, the synchronizer messages in
``repro/node/messages.py``, and the objects they carry (vertices,
transactions, schedules, snapshots) — encodes to a canonical byte
string: one tag byte per value, big-endian fixed-width numbers,
length-prefixed strings/bytes, and *sorted* encodings for sets and
dicts so that equal values always produce identical bytes regardless of
insertion order.  ``decode(encode(x)) == x`` and
``encode(decode(encode(x))) == encode(x)`` hold for every registered
type (pinned by the property suite in
``tests/property/test_prop_netexec_codec.py``).

Frames on the wire are ``>I`` (4-byte big-endian) length prefixes
followed by the encoded body.  The decoder is defensive: every length
field is bounds-checked against the remaining input before any
allocation, oversized/zero-length frames are rejected, and a decoded
body must consume its input exactly — so truncated, padded, or garbage
frames raise :class:`CodecError`/:class:`FrameError` instead of hanging
or crashing the reader (the transport closes the connection with a
logged reason; see ``repro/netexec/transport.py``).

Decoded vertices are integrity-checked: the carried digest must equal
the digest recomputed from the decoded fields, so a corrupted or forged
vertex body is rejected at the codec boundary, before any protocol code
sees it.  The check is about half of what decoding a proposal costs and
is not optional on any path: the DAG, the commit rule and the reputation
scores all identify a vertex by that digest, and the codec is the only
place a peer's bytes are compared with it.

There are two decoders and one verdict.  ``_decode_at`` walks any body
one tagged value at a time and is the authority: it accepts or refuses
every frame and words every refusal.  The propose, ack and certificate
frames — nearly all of a run's traffic — also have a *compiled layout*
(see "wire layouts of the hot frames"): a fixed prefix, or a whole run
of edges, transactions or signers, is one ``struct`` call with the tag
bytes included and compared in one go.  A layout decoder returns only
what ``_decode_at`` would have returned for the same bytes; at the
first byte off the exact layout it gives up and ``decode`` starts over
from byte 0 with ``_decode_at``.  Wire bytes, the accept/reject set,
decoded values and error text therefore do not depend on which decoder
ran — ``tests/property/test_prop_codec_differential.py`` holds both
against the reference decoder in ``tests/reference_codec.py`` — and
every decoded vertex went through ``_build_vertex`` either way.  A link
end may pass a :class:`VertexSlot`: a layout decoder whose vertex starts
with the slot's bytes returns what those same bytes already decoded to
on that link, and an encoder given the very vertex object it remembers
appends the bytes it already made.  The wire does not change
(``tests/property/test_prop_codec_slots.py``).

This module is pure (no clock, no randomness, no sockets) and is safe
to import from tests and from the lockstep oracle.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dag.vertex import Vertex
from repro.errors import ReproError
from repro.crypto.hashing import vertex_digest
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


class CodecError(ReproError):
    """A value cannot be encoded, or a body cannot be decoded."""


class FrameError(CodecError):
    """A frame header/body violates the framing contract."""


# A single frame must fit the largest FetchResponse we ever expect at
# supported committee sizes, with a wide margin: a validator that holds
# nothing is sent every round the responder still stores.  Anything
# larger is a protocol violation or an attack and is rejected before
# allocation.
MAX_FRAME_BYTES = 8 * 1024 * 1024

# Bounds on a FetchRequest frontier: how many stored rounds it may list
# and how wide one round's source bitmask may be (1024 validators).
MAX_FRONTIER_ROUNDS = 4096
MAX_MASK_BYTES = 128
# A vertex and its edges may name only the validator ids such a mask can
# hold: ``Vertex`` shifts by every edge source.
_MAX_SOURCES = 8 * MAX_MASK_BYTES
# The largest encoded vertex a VertexSlot remembers.
_SLOT_BYTES = 64 * 1024

_HEADER = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

# Value tags.  Mnemonics follow repro.crypto.hashing._canonical_bytes
# where the two overlap (N/I/S/Y/L/E/D), plus T/F booleans, R float
# ("real"), and O for registered objects.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"R"
_TAG_STR = b"S"
_TAG_BYTES = b"Y"
_TAG_TUPLE = b"L"
_TAG_FROZENSET = b"E"
_TAG_DICT = b"D"
_TAG_OBJECT = b"O"


@dataclasses.dataclass(frozen=True)
class Hello:
    """The first frame on every connection: identifies the sender."""

    node_id: int


class VertexSlot:
    """One link end's memory of one vertex and its encoded bytes.

    On a link the certificate re-ships the vertex its proposal sent one
    frame earlier.  A sender's slot holds the vertex object it encoded
    last; a receiver's holds what its bytes decoded to last, filled only
    once ``_build_vertex`` accepted it.  The vertex encoding is
    prefix-free, so bytes that begin with a complete valid encoding
    decode to that vertex under either decoder.  A slot serves one
    direction and remembers no encoding above 64 KiB.
    """

    __slots__ = ("vertex", "encoded")

    def __init__(self) -> None:
        self.vertex: Optional[Vertex] = None
        self.encoded = b""

    def remember(self, vertex: Vertex, encoded: bytes) -> bytes:
        if len(encoded) <= _SLOT_BYTES:
            self.vertex, self.encoded = vertex, encoded
        return encoded


@dataclasses.dataclass(frozen=True)
class _TypeSpec:
    code: int
    cls: type
    fields: Tuple[str, ...]
    build: Callable[[tuple], Any]
    # Wire values of ``fields`` when they differ from the attributes.
    pack: Optional[Callable[[Any], tuple]] = None


def _build_vertex(fields: tuple) -> Vertex:
    vertex_id, edges, block, digest, created_at = fields
    if not isinstance(vertex_id, VertexId):
        raise CodecError("vertex id field must decode to a VertexId")
    if not isinstance(edges, frozenset):
        raise CodecError("vertex edges field must decode to a frozenset")
    for named in (vertex_id, *edges):
        source = getattr(named, "source", None)
        if type(source) is not int or not 0 <= source < _MAX_SOURCES:
            raise CodecError(f"vertex names a source outside the validator ids [0, {_MAX_SOURCES})")
        # Ascending ids are then also ascending encoded bytes: the edge
        # order ``Vertex`` keeps is the wire's (see ``_EdgeSet``).
        round_number = named.round
        if type(round_number) is not int or round_number < 0:
            raise CodecError("vertex names a round that is not a non-negative integer")
    vertex = Vertex(
        id=vertex_id,
        edges=edges,
        block=block,
        digest=digest,
        created_at=created_at,
    )
    if digest != vertex_digest(vertex_id.round, vertex_id.source, vertex.edges, len(block)):
        raise CodecError(
            f"vertex {vertex_id.round}/{vertex_id.source} digest mismatch: "
            "carried digest does not match the recomputed content digest"
        )
    return vertex


class _EdgeSet(tuple):
    """A vertex's edges on their way to the wire: a set, written as one.

    ``Vertex`` keeps its edges ascending, and for the non-negative
    integer ids a decoded vertex may name, ascending ids encode to
    ascending bytes, so the edges are already in the canonical set order
    and are written as they stand, not sorted by their encodings again.
    """


def _pack_fetch_request(request: FetchRequest) -> tuple:
    """Masks outgrow the 64-bit wire integer past committee 63, so they
    travel as minimal big-endian byte strings."""
    if len(request.held) > MAX_FRONTIER_ROUNDS:
        raise CodecError(f"frontier lists more than {MAX_FRONTIER_ROUNDS} rounds")
    held = []
    for round_number, mask in request.held:
        width = (mask.bit_length() + 7) // 8
        if mask < 0 or width > MAX_MASK_BYTES:
            raise CodecError(
                f"frontier mask must be non-negative and at most {MAX_MASK_BYTES} bytes wide"
            )
        held.append((round_number, mask.to_bytes(width, "big")))
    return (request.requester, request.missing, request.horizon, tuple(held))


def _build_fetch_request(fields: tuple) -> FetchRequest:
    requester, missing, horizon, held = fields
    if not isinstance(missing, tuple):
        raise CodecError("fetch request missing field must decode to a tuple")
    for vertex_id in missing:
        if (
            not isinstance(vertex_id, VertexId)
            or type(vertex_id.round) is not int
            or type(vertex_id.source) is not int
        ):
            raise CodecError("fetch request may only name integer vertex ids")
    if type(horizon) is not int or horizon < 0:
        raise CodecError("fetch request horizon must be a non-negative integer")
    if not isinstance(held, tuple) or len(held) > MAX_FRONTIER_ROUNDS:
        raise CodecError(
            f"fetch request frontier must be a tuple of at most {MAX_FRONTIER_ROUNDS} rounds"
        )
    masks = []
    previous = -1
    for entry in held:
        if type(entry) is not tuple or len(entry) != 2:
            raise CodecError("frontier entries must be (round, mask) pairs")
        round_number, raw = entry
        if type(round_number) is not int or round_number <= previous:
            raise CodecError("frontier rounds must be non-negative and strictly ascending")
        if type(raw) is not bytes or len(raw) > MAX_MASK_BYTES or raw[:1] == b"\x00":
            raise CodecError(
                f"frontier mask must be at most {MAX_MASK_BYTES} minimal big-endian bytes"
            )
        masks.append((round_number, int.from_bytes(raw, "big")))
        previous = round_number
    return FetchRequest(
        requester=requester, missing=missing, horizon=horizon, held=tuple(masks)
    )


def _spec(
    code: int,
    cls: type,
    fields: Tuple[str, ...],
    build: Callable[[tuple], Any] = None,
    pack: Optional[Callable[[Any], tuple]] = None,
) -> _TypeSpec:
    if build is None:
        def build(values, _cls=cls, _fields=fields):
            return _cls(**dict(zip(_fields, values)))
    return _TypeSpec(code=code, cls=cls, fields=fields, build=build, pack=pack)


# Registered object types.  Codes are part of the wire format: append
# new entries, never renumber existing ones.
_SPECS: Tuple[_TypeSpec, ...] = (
    _spec(1, Hello, ("node_id",)),
    _spec(2, VertexId, ("round", "source"), build=lambda v: VertexId(*v)),
    _spec(
        3, Vertex, ("id", "edges", "block", "digest", "created_at"), build=_build_vertex,
        # A block travels as the tuple of its items, whatever sequence holds them.
        pack=lambda v: (v.id, _EdgeSet(v.edges), tuple(v.block), v.digest, v.created_at),
    ),
    _spec(
        4,
        Transaction,
        ("tx_id", "client_id", "submitted_at", "target_validator", "kind", "payload_bytes"),
        build=lambda v: Transaction(*v),
    ),
    _spec(5, LeaderSchedule, ("epoch", "initial_round", "slots")),
    _spec(
        6,
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
    _spec(
        7,
        FetchRequest,
        ("requester", "missing", "horizon", "held"),
        build=_build_fetch_request,
        pack=_pack_fetch_request,
    ),
    _spec(8, FetchResponse, ("responder", "vertices", "responder_gc_round", "snapshot")),
    _spec(9, BroadcastMessage, ("origin", "round", "digest")),
    _spec(10, ProposeMessage, ("origin", "round", "digest", "payload")),
    _spec(11, AckMessage, ("origin", "round", "digest", "voter")),
    _spec(12, CertificateMessage, ("origin", "round", "digest", "payload", "signers")),
    _spec(13, CertificateBatch, ("origin", "round", "digest", "certificates")),
    # Codes 14, 15 and 16 are retired and must not be reassigned: a code
    # identifies one message type for as long as the wire format lives.
)

# Dispatch must be by exact class, not isinstance: the rbc messages form
# an inheritance chain and each subclass has its own code.
_SPEC_BY_CLASS: Dict[type, _TypeSpec] = {spec.cls: spec for spec in _SPECS}
_SPEC_BY_CODE: Dict[int, _TypeSpec] = {spec.code: spec for spec in _SPECS}

MESSAGE_TYPES: Tuple[type, ...] = tuple(spec.cls for spec in _SPECS)


# -- wire layouts of the hot frames ---------------------------------------------
#
# A socket run is propose, ack and certificate frames almost entirely, and
# each is a fixed sequence of tagged fields around three runs of identical
# items: a vertex's edges, its block, a certificate's signers.  A layout
# spells such a sequence out in wire order as literal bytes (tags, type
# codes, fixed lengths) and struct codes; ``_layout`` compiles it to one
# ``struct.Struct`` whose even items are the literals and whose odd items
# are the values, so one unpack reads a whole prefix or a whole run and
# one tuple comparison checks every tag in it.  The decoders over these
# layouts are an accelerator, never an authority: see ``decode``.
#
#   AckMessage          _message voter
#   ProposeMessage      _message <vertex>
#   CertificateMessage  _message <vertex> L count, count x signer
#   CertificateBatch    _message L count, count x CertificateMessage
#   <vertex>            _VERTEX_HEAD, count x _VERTEX_ID, L count,
#                       count x _transaction(kind length), _VERTEX_TAIL


class _LayoutMismatch(Exception):
    """The bytes are not the exact layout: the generic decoder decides."""


def _object(cls: type) -> bytes:
    return _TAG_OBJECT + bytes([_SPEC_BY_CLASS[cls].code])


def _layout(*tokens) -> Tuple[struct.Struct, Tuple[bytes, ...]]:
    """Compile literals and struct codes to ``(struct, the literals it must unpack)``."""
    codes, literals, pending = [], [], b""
    for token in tokens:
        if isinstance(token, bytes):
            pending += token
        else:
            codes.append(f"{len(pending)}s{token}")
            literals.append(pending)
            pending = b""
    return struct.Struct(">" + "".join(codes)), tuple(literals)


_INT64 = (_TAG_INT, "q")
_FLOAT64 = (_TAG_FLOAT, "d")
_DIGEST32 = (_TAG_BYTES + _HEADER.pack(32), "32s")
_VERTEX_ID = (_object(VertexId), *_INT64, *_INT64)  # round, source
_VERTEX_HEAD = (_object(Vertex), *_VERTEX_ID, _TAG_FROZENSET, "I")  # id, edge count
_VERTEX_TAIL = (*_DIGEST32, *_FLOAT64)  # digest, created_at
# tx_id, client_id, submitted_at, target_validator, then the kind string
_TRANSACTION_HEAD = (_object(Transaction), *_INT64, *_INT64, *_FLOAT64, *_INT64, _TAG_STR)


def _transaction(kind_length: int) -> tuple:
    kind = (_HEADER.pack(kind_length), f"{kind_length}s")
    return (*_TRANSACTION_HEAD, *kind, *_INT64)  # ..., kind, payload_bytes


def _message(cls: type) -> tuple:
    return (_object(cls), *_INT64, *_INT64, *_DIGEST32)  # origin, round, digest


_ACK = _layout(*_message(AckMessage), *_INT64)
_PROPOSE = _layout(*_message(ProposeMessage), *_VERTEX_HEAD)
_CERTIFICATE = _layout(*_message(CertificateMessage), *_VERTEX_HEAD)
_BATCH = _layout(*_message(CertificateBatch), _TAG_TUPLE, "I")
_SIGNER_COUNT = _layout(_TAG_TUPLE, "I")

def _wire_size(*tokens) -> int:
    return sum(
        len(token) if isinstance(token, bytes) else struct.calcsize(">" + token)
        for token in tokens
    )


# Where a block's first transaction keeps the length of its kind.
_KIND_LENGTH_AT = _wire_size(*_TRANSACTION_HEAD)
_VERTEX_HEAD_BYTES = _wire_size(*_VERTEX_HEAD)
_VERTEX_ID_BYTES = _wire_size(*_VERTEX_ID)
_TRANSACTION_BYTES = _wire_size(*_transaction(0))  # plus the kind's length
_SIGNER_BYTES = _wire_size(*_INT64)
_MAX_RUN = 1024


def _require_run(count: int, item_bytes: int, data: bytes, offset: int) -> None:
    """Leave a run to the generic decoder unless it is short and can fit.

    A run is a committee's or a block's worth of items at most, and its
    items must fit in what is left of the frame: what a peer can make
    this module compile is then proportional to the bytes it sent, and
    each of the three caches below holds at most 64 structs of ~12k
    fields.
    """
    if count > _MAX_RUN or count * item_bytes > len(data) - offset:
        raise _LayoutMismatch


@functools.lru_cache(maxsize=64)
def _edges(count: int):
    """``count`` edges, then the count of the block behind them."""
    return _layout(*_VERTEX_ID * count, _TAG_TUPLE, "I")


@functools.lru_cache(maxsize=64)
def _block(count: int, kind_length: int):
    """``count`` transactions of one kind length, then the vertex's tail."""
    return _layout(*_transaction(kind_length) * count, *_VERTEX_TAIL)


@functools.lru_cache(maxsize=64)
def _signers(count: int):
    return _layout(*_INT64 * count)


# -- encoding ----------------------------------------------------------------


def _encode_into(value: Any, out: List[bytes], slot: Optional[VertexSlot] = None) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif type(value) is int:
        try:
            out.append(_TAG_INT + _I64.pack(value))
        except struct.error:
            raise CodecError(f"integer {value} exceeds the 64-bit wire range") from None
    elif type(value) is float:
        out.append(_TAG_FLOAT + _F64.pack(value))
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(_TAG_STR + _HEADER.pack(len(raw)) + raw)
    elif type(value) is bytes:
        out.append(_TAG_BYTES + _HEADER.pack(len(value)) + value)
    elif type(value) in (tuple, list):
        out.append(_TAG_TUPLE + _HEADER.pack(len(value)))
        for item in value:
            _encode_into(item, out, slot)
    elif type(value) is frozenset or type(value) is set:
        # Canonical order: sort by encoded bytes, so equal sets encode
        # identically whatever their in-memory iteration order.
        out.append(_TAG_FROZENSET + _HEADER.pack(len(value)))
        out.extend(sorted(encode(item) for item in value))
    elif type(value) is _EdgeSet:
        out.append(_TAG_FROZENSET + _HEADER.pack(len(value)))
        for item in value:
            _encode_into(item, out, slot)
    elif type(value) is dict:
        out.append(_TAG_DICT + _HEADER.pack(len(value)))
        pairs = sorted(
            (encode(key), encode(item)) for key, item in value.items()
        )
        for encoded_key, encoded_value in pairs:
            out.append(encoded_key)
            out.append(encoded_value)
    elif slot is not None and type(value) is Vertex:
        out.append(slot.encoded if slot.vertex is value else slot.remember(value, encode(value)))
    else:
        spec = _SPEC_BY_CLASS.get(type(value))
        if spec is None:
            raise CodecError(f"type {type(value).__name__} is not wire-encodable")
        out.append(_TAG_OBJECT + bytes([spec.code]))
        if spec.pack is not None:
            for item in spec.pack(value):
                _encode_into(item, out, slot)
        else:
            for name in spec.fields:
                _encode_into(getattr(value, name), out, slot)


def encode(value: Any, slot: Optional[VertexSlot] = None) -> bytes:
    """Encode ``value`` to its canonical byte string (no frame header)."""
    out: List[bytes] = []
    _encode_into(value, out, slot)
    return b"".join(out)


def encode_frame(value: Any, slot: Optional[VertexSlot] = None) -> bytes:
    """Encode ``value`` and prepend the ``>I`` length header."""
    body = encode(value, slot)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"encoded frame is {len(body)} bytes, above the {MAX_FRAME_BYTES}-byte cap"
        )
    return _HEADER.pack(len(body)) + body


# -- decoding ----------------------------------------------------------------


_TRUNCATED = "truncated value: length field exceeds the remaining body"

_unpack_i64 = _I64.unpack_from
_unpack_f64 = _F64.unpack_from
_unpack_count = _HEADER.unpack_from

# ``bytes`` indexing yields integers; compare against those.
_INT, _FLOAT, _STR, _BYTES = _TAG_INT[0], _TAG_FLOAT[0], _TAG_STR[0], _TAG_BYTES[0]
_TUPLE, _FROZENSET, _DICT, _OBJECT = (
    _TAG_TUPLE[0], _TAG_FROZENSET[0], _TAG_DICT[0], _TAG_OBJECT[0],
)
_NONE, _TRUE, _FALSE = _TAG_NONE[0], _TAG_TRUE[0], _TAG_FALSE[0]


def _count_at(data: bytes, offset: int) -> Tuple[int, int]:
    """The ``>I`` count at ``offset``: ``(count, offset past it)``."""
    try:
        (count,) = _unpack_count(data, offset)
    except struct.error:
        raise CodecError(_TRUNCATED) from None
    offset += 4
    # Each encoded item is at least one tag byte, so a count larger than
    # the remaining bytes is garbage; rejecting it here keeps a hostile
    # 4-byte count from driving a multi-gigabyte loop or allocation.
    if count > len(data) - offset:
        raise CodecError("length field exceeds the remaining body")
    return count, offset


def _decode_at(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode the value at ``data[offset]``: ``(value, offset past it)``.

    One call per value and no intermediate slices: a socket run spends
    most of its time here.  Every read is bounds-checked (``unpack_from``
    and indexing raise, ``_count_at`` compares) before anything is
    allocated from a length the peer chose.
    """
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
        spec = _SPEC_BY_CODE.get(code)
        if spec is None:
            raise CodecError(f"unknown wire type code {code}")
        values = []
        for _ in spec.fields:
            value, offset = _decode_at(data, offset)
            values.append(value)
        try:
            return spec.build(tuple(values)), offset
        except CodecError:
            raise
        except Exception as error:
            raise CodecError(
                f"cannot reconstruct {spec.cls.__name__} from wire fields: {error}"
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


def _fields_at(layout, data: bytes, offset: int) -> Tuple[tuple, int]:
    """Unpack ``layout`` at ``offset``: ``(literals and values, offset past them)``."""
    packed, literals = layout
    fields = packed.unpack_from(data, offset)
    if fields[0::2] != literals:
        raise _LayoutMismatch
    return fields, offset + packed.size


# A named tuple's generated ``__new__`` only counts its arguments, and a
# layout fixes the count: build the two a vertex is full of in C.
_vertex_id_of = functools.partial(tuple.__new__, VertexId)
_transaction_of = functools.partial(tuple.__new__, Transaction)


def _vertex_at(data: bytes, offset: int, head: tuple, slot: Optional[VertexSlot]) -> Tuple[Vertex, int]:
    """The vertex whose ``_VERTEX_HEAD`` the caller unpacked with its own prefix."""
    start = offset - _VERTEX_HEAD_BYTES
    if slot is not None and slot.encoded and data.startswith(slot.encoded, start):
        return slot.vertex, start + len(slot.encoded)
    round_number, source, edge_count = head[7], head[9], head[11]
    _require_run(edge_count, _VERTEX_ID_BYTES, data, offset)
    fields, offset = _fields_at(_edges(edge_count), data, offset)
    edges = frozenset(map(_vertex_id_of, zip(fields[1:-1:4], fields[3:-1:4])))
    if len(edges) != edge_count:
        raise _LayoutMismatch
    block_count = fields[-1]
    kind_length = _unpack_count(data, offset + _KIND_LENGTH_AT)[0] if block_count else 0
    _require_run(block_count, _TRANSACTION_BYTES + kind_length, data, offset)
    fields, offset = _fields_at(_block(block_count, kind_length), data, offset)
    # Twelve items a transaction (six literals, six values), four for the tail.
    transactions = zip(
        fields[1:-4:12],
        fields[3:-4:12],
        fields[5:-4:12],
        fields[7:-4:12],
        map(bytes.decode, fields[9:-4:12]),
        fields[11:-4:12],
    )
    vertex_id = _vertex_id_of((round_number, source))
    block = tuple(map(_transaction_of, transactions))
    try:
        # Not optional on this path either: a vertex whose carried digest
        # is not the digest of its fields must never reach protocol code.
        vertex = _build_vertex((vertex_id, edges, block, fields[-3], fields[-1]))
    except Exception as error:  # noqa: BLE001 - the generic decoder words the refusal
        raise _LayoutMismatch from error
    if slot is not None:
        slot.remember(vertex, data[start:offset])
    return vertex, offset


def _ack_at(data: bytes, offset: int, slot: Optional[VertexSlot]) -> Tuple[AckMessage, int]:
    fields, offset = _fields_at(_ACK, data, offset)
    return AckMessage(*fields[1::2]), offset


def _propose_at(data: bytes, offset: int, slot: Optional[VertexSlot]) -> Tuple[ProposeMessage, int]:
    head, offset = _fields_at(_PROPOSE, data, offset)
    vertex, offset = _vertex_at(data, offset, head, slot)
    return ProposeMessage(head[1], head[3], head[5], vertex), offset


def _certificate_at(data: bytes, offset: int, slot: Optional[VertexSlot]) -> Tuple[CertificateMessage, int]:
    head, offset = _fields_at(_CERTIFICATE, data, offset)
    vertex, offset = _vertex_at(data, offset, head, slot)
    (_, count), offset = _fields_at(_SIGNER_COUNT, data, offset)
    _require_run(count, _SIGNER_BYTES, data, offset)
    fields, offset = _fields_at(_signers(count), data, offset)
    return CertificateMessage(head[1], head[3], head[5], vertex, fields[1::2]), offset


def _batch_at(data: bytes, offset: int, slot: Optional[VertexSlot]) -> Tuple[CertificateBatch, int]:
    head, offset = _fields_at(_BATCH, data, offset)
    certificates = []
    for _ in range(head[7]):
        certificate, offset = _certificate_at(data, offset, slot)
        certificates.append(certificate)
    return CertificateBatch(head[1], head[3], head[5], tuple(certificates)), offset


_LAYOUT_DECODERS: Dict[bytes, Callable[[bytes, int, Optional[VertexSlot]], Tuple[Any, int]]] = {
    _object(AckMessage): _ack_at,
    _object(ProposeMessage): _propose_at,
    _object(CertificateMessage): _certificate_at,
    _object(CertificateBatch): _batch_at,
}


def decode(body: bytes, slot: Optional[VertexSlot] = None) -> Any:
    """Decode one canonical value; the body must be consumed exactly.

    A frame of a type with a compiled layout is tried against it first,
    with ``slot`` the memory of the link it arrived on.
    Any byte off the layout (a ``None`` payload, a digest that is not 32
    bytes, a hostile tag, a repeated edge, a vertex ``_build_vertex``
    refuses, a trailing byte) hands the whole body to ``_decode_at``,
    so every refusal, and its text, is the generic decoder's.
    """
    by_layout = _LAYOUT_DECODERS.get(body[:2])
    if by_layout is not None:
        try:
            value, offset = by_layout(body, 0, slot)
            if offset == len(body):
                return value
        except (_LayoutMismatch, struct.error, UnicodeDecodeError):
            pass
    value, offset = _decode_at(body, 0)
    if offset != len(body):
        raise CodecError(
            f"frame body has {len(body) - offset} trailing bytes after the value"
        )
    return value


def split_frames(buffer, deliver: Callable[[Any], None], slot: Optional[VertexSlot] = None) -> int:
    """Decode every complete frame at the front of ``buffer``, in order.

    Each value goes to ``deliver`` before the next frame is looked at, so
    whatever precedes a bad frame has been delivered when it raises.  A
    header is checked as soon as its four bytes are there: a length of
    zero or above :data:`MAX_FRAME_BYTES` raises :class:`FrameError`
    without waiting for a body.  Returns the bytes consumed; the rest is
    a partial frame to keep.  ``buffer`` is ``bytes`` or a ``bytearray``.
    """
    offset = 0
    available = len(buffer)
    while available - offset >= 4:
        (length,) = _unpack_count(buffer, offset)
        if length == 0 or length > MAX_FRAME_BYTES:
            raise FrameError(f"frame length {length} outside (0, {MAX_FRAME_BYTES}]")
        end = offset + 4 + length
        if end > available:
            break
        deliver(decode(bytes(buffer[offset + 4:end]), slot))
        offset = end
    return offset


def decode_frames(buffer: bytes) -> Tuple[Tuple[Any, ...], bytes]:
    """Decode every complete frame in ``buffer``.

    Returns ``(values, remainder)`` where ``remainder`` is the trailing
    partial frame (possibly empty).  Raises :class:`FrameError` on a
    header whose length is zero or above :data:`MAX_FRAME_BYTES` —
    garbage headers must kill the connection, not stall it.
    """
    values: List[Any] = []
    consumed = split_frames(buffer, values.append)
    return tuple(values), buffer[consumed:]
