"""Property suite for the netexec wire codec (satellite of the net backend).

The contract pinned here is what the socket transport stands on:

* ``decode(encode(m)) == m`` for **every registered message type** and
  every value shape they carry (round-trip identity),
* ``encode(decode(encode(m))) == encode(m)`` (canonical idempotence —
  re-encoding a decoded value reproduces the exact bytes, which is what
  makes frames comparable across processes),
* equal sets/dicts encode identically whatever their insertion order
  (canonical container ordering),
* arbitrary garbage fed to the decoder raises :class:`CodecError` or
  returns a value — it never hangs, loops, or escapes with a different
  exception type,
* every strict prefix of a valid encoding is rejected (truncation can
  never be mistaken for a complete value).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import vertex_digest
from repro.dag.vertex import Vertex
from repro.netexec.codec import (
    CodecError,
    FrameError,
    Hello,
    decode,
    decode_frames,
    encode,
    encode_frame,
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

# -- strategies over the wire vocabulary --------------------------------------------

validator_ids = st.integers(min_value=0, max_value=49)
rounds = st.integers(min_value=0, max_value=500)
digests = st.binary(min_size=32, max_size=32)
wire_floats = st.floats(allow_nan=False, allow_infinity=True, width=64)

vertex_ids = st.builds(VertexId, round=rounds, source=validator_ids)

transactions = st.builds(
    Transaction,
    tx_id=st.integers(min_value=0, max_value=10**9),
    client_id=validator_ids,
    submitted_at=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    target_validator=validator_ids,
    kind=st.sampled_from(["counter_increment", "transfer"]),
    payload_bytes=st.integers(min_value=0, max_value=4096),
)


@st.composite
def vertices(draw):
    """A structurally valid vertex whose carried digest is the true one.

    The codec integrity-checks the digest on decode, so the strategy must
    produce internally consistent vertices (a forged digest is a *unit*
    test, not a round-trip property).
    """
    round_number = draw(st.integers(min_value=1, max_value=50))
    source = draw(validator_ids)
    edge_sources = draw(st.frozensets(validator_ids, min_size=1, max_size=6))
    edges = frozenset(VertexId(round_number - 1, s) for s in edge_sources)
    block = tuple(draw(st.lists(transactions, max_size=3)))
    digest = vertex_digest(round_number, source, sorted(edges), len(block))
    created_at = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    return Vertex(
        id=VertexId(round_number, source),
        edges=edges,
        block=block,
        digest=digest,
        created_at=created_at,
    )


@st.composite
def leader_schedules(draw):
    return LeaderSchedule(
        epoch=draw(st.integers(min_value=0, max_value=30)),
        initial_round=2 * draw(st.integers(min_value=0, max_value=100)),
        slots=tuple(draw(st.lists(validator_ids, min_size=1, max_size=8))),
    )


@st.composite
def snapshots(draw):
    return ConsensusSnapshot(
        last_ordered_anchor_round=draw(rounds),
        gc_round=draw(rounds),
        schedules=tuple(draw(st.lists(leader_schedules(), max_size=3))),
        scores=draw(st.dictionaries(validator_ids, wire_floats, max_size=6)),
        commits_in_epoch=draw(st.integers(min_value=0, max_value=100)),
        ordered_vertices=draw(st.frozensets(vertex_ids, max_size=8)),
        vote_accounting=draw(
            st.none()
            | st.tuples(
                st.tuples(st.integers(0, 9), st.integers(0, 9)),
                st.tuples(st.integers(0, 9)),
            )
        ),
    )


# A fetch frontier: strictly ascending rounds, each with a source mask
# that may be wider than the 64-bit wire integer (committee 200).
frontiers = st.dictionaries(
    rounds, st.integers(min_value=0, max_value=(1 << 200) - 1), max_size=6
).map(lambda masks: tuple(sorted(masks.items())))

certificates = st.builds(
    CertificateMessage,
    origin=validator_ids,
    round=rounds,
    digest=digests,
    payload=st.none() | vertices(),
    signers=st.lists(validator_ids, max_size=6).map(tuple),
)

messages = st.one_of(
    st.builds(Hello, node_id=validator_ids),
    vertex_ids,
    vertices(),
    transactions,
    leader_schedules(),
    snapshots(),
    st.builds(
        FetchRequest,
        requester=validator_ids,
        missing=st.lists(vertex_ids, max_size=6).map(tuple),
        horizon=rounds,
        held=frontiers,
    ),
    st.builds(
        FetchResponse,
        responder=validator_ids,
        vertices=st.lists(vertices(), max_size=3).map(tuple),
        responder_gc_round=rounds,
        snapshot=st.none() | snapshots(),
    ),
    st.builds(BroadcastMessage, origin=validator_ids, round=rounds, digest=digests),
    st.builds(
        ProposeMessage,
        origin=validator_ids,
        round=rounds,
        digest=digests,
        payload=st.none() | vertices(),
    ),
    st.builds(
        AckMessage,
        origin=validator_ids,
        round=rounds,
        digest=digests,
        voter=validator_ids,
    ),
    certificates,
    st.builds(
        PiggybackedPropose,
        origin=validator_ids,
        round=rounds,
        digest=digests,
        payload=st.none() | vertices(),
        certificates=st.lists(certificates, max_size=3).map(tuple),
    ),
    st.builds(
        CertificateBatch,
        origin=validator_ids,
        round=rounds,
        digest=digests,
        certificates=st.lists(certificates, max_size=3).map(tuple),
    ),
)


class TestRoundTrip:
    @given(messages)
    @settings(max_examples=300, deadline=None)
    def test_decode_encode_is_identity(self, message):
        assert decode(encode(message)) == message
        assert type(decode(encode(message))) is type(message)

    @given(messages)
    @settings(max_examples=300, deadline=None)
    def test_reencoding_is_canonical(self, message):
        wire = encode(message)
        assert encode(decode(wire)) == wire

    @given(st.lists(messages, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_frame_stream_round_trips(self, batch):
        stream = b"".join(encode_frame(message) for message in batch)
        values, remainder = decode_frames(stream)
        assert list(values) == batch
        assert remainder == b""

    @given(st.lists(messages, min_size=1, max_size=3), st.integers(min_value=1))
    @settings(max_examples=100, deadline=None)
    def test_partial_trailing_frame_is_kept_not_decoded(self, batch, cut):
        stream = b"".join(encode_frame(message) for message in batch)
        tail = encode_frame(batch[0])
        cut = cut % len(tail)  # strict prefix of the extra frame
        buffer = stream + tail[:cut]
        values, remainder = decode_frames(buffer)
        assert list(values) == batch
        assert remainder == tail[:cut]


class TestCanonicalContainers:
    @given(st.lists(vertex_ids, min_size=2, max_size=8, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_set_encoding_ignores_insertion_order(self, ids):
        forward = frozenset(ids)
        backward = frozenset(reversed(ids))
        assert encode(forward) == encode(backward)

    @given(st.dictionaries(validator_ids, wire_floats, min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_dict_encoding_ignores_insertion_order(self, mapping):
        reversed_order = dict(reversed(list(mapping.items())))
        assert encode(mapping) == encode(reversed_order)


class TestAdversarialInput:
    @given(st.binary(max_size=200))
    @settings(max_examples=500, deadline=None)
    def test_garbage_never_escapes_codec_error(self, blob):
        """Arbitrary bytes either decode or raise CodecError — nothing else."""
        try:
            decode(blob)
        except CodecError:
            pass

    @given(messages, st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    def test_every_strict_prefix_is_rejected(self, message, cut):
        wire = encode(message)
        cut = cut % len(wire)
        try:
            decode(wire[:cut])
        except CodecError:
            return
        raise AssertionError(
            f"truncated encoding ({cut}/{len(wire)} bytes) decoded successfully"
        )

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_frame_stream_garbage_raises_or_returns(self, blob):
        try:
            decode_frames(blob)
        except (FrameError, CodecError):
            pass
