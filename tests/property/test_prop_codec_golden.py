"""Golden wire bytes: a vertex keeps its edges as an ascending tuple, and
the codec still writes exactly what it wrote while they were a frozenset.

``tests/reference_codec.py``'s encoder is the old one-value-at-a-time
encoder, which sorts every set by the encoded bytes of its items; its
output is the golden wire.  Production writes a vertex's edges in the
order the vertex keeps them, which is the same order for the
non-negative integer ids a vertex may name on the wire.  The strategies
here reach past the protocol's own vertices on purpose: edges across
several rounds, sources up to 1023 and rounds past 2**32, where an
ordering by value and one by bytes would part first.
"""

from __future__ import annotations

import dataclasses
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netexec.codec as codec
import tests.reference_codec as reference_codec
from repro.crypto.hashing import vertex_digest
from repro.dag.vertex import Vertex
from repro.netexec.codec import CodecError, VertexMemo, decode, encode, encode_frame
from repro.node.messages import FetchResponse
from repro.rbc.messages import AckMessage, CertificateBatch, CertificateMessage, ProposeMessage
from repro.types import VertexId
from repro.workload.transactions import Transaction, TransactionBatch
from tests.property.test_prop_codec_differential import _frames_around, _vertex_wire
from tests.property.test_prop_netexec_codec import digests, snapshots, transactions

wire_sources = st.integers(min_value=0, max_value=1023)
wire_rounds = st.integers(min_value=0, max_value=1 << 40)
edge_ids = st.builds(VertexId, round=wire_rounds, source=wire_sources)


@st.composite
def wire_vertices(draw):
    """A vertex any peer may send: true digest, edges naming any rounds."""
    vertex_id = draw(st.builds(VertexId, round=wire_rounds, source=wire_sources))
    edges = draw(st.lists(edge_ids, max_size=12, unique=True))
    block = tuple(draw(st.lists(transactions, max_size=2)))
    return Vertex(
        id=vertex_id,
        edges=edges,
        block=block,
        digest=vertex_digest(vertex_id.round, vertex_id.source, sorted(edges), len(block)),
        created_at=draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
    )


wire_certificates = st.builds(
    CertificateMessage,
    origin=wire_sources,
    round=wire_rounds,
    digest=digests,
    payload=wire_vertices(),
    signers=st.lists(wire_sources, max_size=6).map(tuple),
)

carriers = st.one_of(
    wire_vertices(),
    st.builds(ProposeMessage, origin=wire_sources, round=wire_rounds, digest=digests, payload=wire_vertices()),
    wire_certificates,
    st.builds(
        CertificateBatch,
        origin=wire_sources,
        round=wire_rounds,
        digest=digests,
        certificates=st.lists(wire_certificates, max_size=3).map(tuple),
    ),
    st.builds(
        FetchResponse,
        responder=wire_sources,
        vertices=st.lists(wire_vertices(), max_size=3).map(tuple),
        responder_gc_round=wire_rounds,
        snapshot=st.none() | snapshots(),
    ),
)


def _frames_with_edges(vertex, edges):
    """The frames carrying ``vertex``, its edge set written in the given order."""
    edges_wire = b"E" + len(edges).to_bytes(4, "big") + b"".join(map(encode, edges))
    return _frames_around(_vertex_wire(vertex, edges_wire=edges_wire))


def _carried(message):
    """The first vertex ``message`` carries, or ``None``."""
    if isinstance(message, CertificateBatch):
        message = message.certificates[0] if message.certificates else None
    elif isinstance(message, FetchResponse):
        message = message.vertices[0] if message.vertices else None
    vertex = getattr(message, "payload", message)
    return vertex if type(vertex) is Vertex else None


def _memos(message):
    """No memo, a fresh one, and one primed with the message's own vertex."""
    primed = VertexMemo()
    vertex = _carried(message)
    if vertex is not None:
        encode(vertex, primed)
        assert primed.entries[id(vertex)][0] is vertex
    return None, VertexMemo(), primed


def assert_golden_frames(message):
    """``encode_frame`` writes the reference bytes behind their header, whatever the memo."""
    golden = reference_codec.encode(message)
    for memo in _memos(message):
        assert encode_frame(message, memo) == len(golden).to_bytes(4, "big") + golden


@given(carriers)
@settings(max_examples=200, deadline=None)
def test_encoding_is_the_golden_frozenset_encoding(message):
    wire = encode(message)
    assert wire == reference_codec.encode(message)
    assert decode(wire) == message
    assert_golden_frames(message)


def _proposal(**vertex_fields):
    block = vertex_fields.pop("block", (Transaction(7, 1, 0.5, 1), Transaction(8, 2, 0.25, 1)))
    fields = dict(id=VertexId(3, 1), edges=[VertexId(2, 0), VertexId(2, 1)], block=block, created_at=1.5)
    fields.update(vertex_fields)
    fields.setdefault("digest", vertex_digest(3, 1, sorted(fields["edges"]), len(block)))
    return ProposeMessage(1, 3, b"\x05" * 32, Vertex(**fields))


def _certified(proposal, signers=(0, 1, 2)):
    return CertificateMessage(proposal.origin, proposal.round, proposal.digest, proposal.payload, signers)


# Values the hot frames' layouts cannot write, next to two they can.  The
# second item names the part whose layout refuses the value and hands it to
# ``_encode_into``: "vertex", "message", or None when the layout writes it.
OFF_LAYOUT = {
    "created-at-int": (_proposal(created_at=3), "vertex"),
    "created-at-negative-zero": (_proposal(created_at=-0.0), None),
    "vertex-digest-31-bytes": (_proposal(digest=b"\x01" * 31), "vertex"),
    "message-digest-31-bytes": (dataclasses.replace(_proposal(), digest=b"\x01" * 31), "message"),
    "origin-true": (dataclasses.replace(_proposal(), origin=True), "message"),
    "ack-voter-true": (AckMessage(1, 3, b"\x05" * 32, True), "message"),
    "kinds-of-two-lengths": (
        _proposal(block=(Transaction(7, 1, 0.5, 1, "a"), Transaction(8, 1, 0.5, 1, "bb"))), "vertex",
    ),
    "non-ascii-kind": (_proposal(block=(Transaction(7, 1, 0.5, 1, "zähler"),) * 2), None),
    "kind-as-bytes": (_proposal(block=(Transaction(7, 1, 0.5, 1, b"ab"),)), "vertex"),
    "transaction-batch-block": (
        _proposal(block=TransactionBatch(1, range(7, 9), array("q", [1, 2]), array("d", [0.5, 0.25]))), "vertex",
    ),
    "signers-as-a-list": (_certified(_proposal(), signers=[0, 1, 2]), "message"),
    "signer-true": (_certified(_proposal(), signers=(0, True)), "message"),
    "batch-holding-a-list": (CertificateBatch(1, 3, b"\x05" * 32, [_certified(_proposal())]), "message"),
    "certificate-without-a-vertex": (CertificateMessage(1, 3, b"\x05" * 32, None, (0, 1)), "message"),
}


@pytest.mark.parametrize("case", sorted(OFF_LAYOUT))
def test_values_off_the_layouts_still_encode_to_the_golden_bytes(case):
    message, refused_by = OFF_LAYOUT[case]
    assert_golden_frames(message)
    if type(message) is ProposeMessage:
        certificate = _certified(message)
        assert_golden_frames(certificate)
        assert_golden_frames(CertificateBatch(2, 3, b"\x06" * 32, (certificate,)))
    if refused_by == "vertex":
        with pytest.raises(codec._OFF_LAYOUT):
            codec._vertex_by_layout(message.payload)
    elif refused_by == "message":
        with pytest.raises(codec._OFF_LAYOUT):
            codec._LAYOUT_ENCODERS[type(message)](message, None)
    else:
        assert codec._LAYOUT_ENCODERS[type(message)](message, None) == reference_codec.encode(message)


@pytest.mark.parametrize(
    "message",
    [
        _proposal(block=(Transaction(1 << 63, 1, 0.5, 1),)),
        AckMessage(1 << 63, 3, b"\x05" * 32, 1),
        _certified(_proposal(), signers=(0, 1 << 63)),
        _proposal(id=VertexId(1 << 63, 1), edges=[]),
    ],
    ids=["transaction-id", "ack-origin", "signer", "vertex-round"],
)
def test_an_integer_past_64_bits_is_refused_in_the_generic_words(message):
    for memo in (None, VertexMemo()):
        with pytest.raises(CodecError, match=r"^integer 9223372036854775808 exceeds the 64-bit wire range$"):
            encode_frame(message, memo)


@given(wire_vertices())
@settings(max_examples=100, deadline=None)
def test_edges_are_kept_ascending_and_duplicate_free(vertex):
    assert list(vertex.edges) == sorted(set(vertex.edges))
    rebuilt = Vertex(
        id=vertex.id,
        edges=frozenset(vertex.edges),
        block=vertex.block,
        digest=vertex.digest,
        created_at=vertex.created_at,
    )
    assert rebuilt == vertex and rebuilt.edges == vertex.edges


@given(wire_vertices(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_edges_in_any_order_decode_to_the_same_vertex(vertex, random):
    shuffled = list(vertex.edges)
    random.shuffle(shuffled)
    canonical = _frames_around(_vertex_wire(vertex))
    for name, frame in _frames_with_edges(vertex, shuffled).items():
        decoded = decode(frame)
        assert decoded == reference_codec.decode(frame) == decode(canonical[name])
        assert encode(decoded) == canonical[name]


@given(wire_vertices().filter(lambda vertex: vertex.edges), st.data())
@settings(max_examples=100, deadline=None)
def test_a_repeated_edge_is_refused(vertex, data):
    repeated = data.draw(st.sampled_from(vertex.edges))
    for frame in _frames_with_edges(vertex, [*vertex.edges, repeated]).values():
        with pytest.raises(CodecError, match="duplicate items in encoded set"):
            decode(frame)


@pytest.mark.parametrize("stray", [VertexId(-1, 0), VertexId(1.0, 0), VertexId(True, 0)])
def test_an_edge_round_that_is_not_a_non_negative_integer_is_refused(stray):
    """Such a round would sort one way by value and another by its bytes;
    ``%d`` also formats ``1.0`` and ``True`` as ``1``, so the digest alone
    cannot tell the edge from ``VertexId(1, 0)``."""
    block = (Transaction(7, 1, 0.5, 1),)
    edges = [stray, VertexId(1, 2)]
    digest = vertex_digest(2, 1, [(1, 0), (1, 2)], len(block))
    wire = b"O\x03" + b"".join(
        encode(field) for field in (VertexId(2, 1), frozenset(edges), block, digest, 3.5)
    )
    for decoder in (decode, reference_codec.decode):
        with pytest.raises(CodecError, match="vertex names a round that is not a non-negative integer"):
            decoder(wire)
