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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.reference_codec as reference_codec
from repro.crypto.hashing import vertex_digest
from repro.dag.vertex import Vertex
from repro.netexec.codec import CodecError, decode, encode
from repro.node.messages import FetchResponse
from repro.rbc.messages import CertificateBatch, CertificateMessage, ProposeMessage
from repro.types import VertexId
from repro.workload.transactions import Transaction
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


@given(carriers)
@settings(max_examples=200, deadline=None)
def test_encoding_is_the_golden_frozenset_encoding(message):
    wire = encode(message)
    assert wire == reference_codec.encode(message)
    assert decode(wire) == message


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
