"""Unit tests for the netexec wire codec: explicit round-trips per
registered type, and the defensive-decoding contract (truncated,
oversized, zero-length, and garbage frames are rejected — never hung on,
never crashed on with a foreign exception type).

The property suite (``tests/property/test_prop_netexec_codec.py``)
covers the same contract over generated inputs; this file pins the
concrete cases a reviewer should be able to read directly, plus the
hostile frames hypothesis is unlikely to synthesize (forged vertex
digests, duplicate dict keys, unknown type codes).
"""

from __future__ import annotations

import struct

import pytest

from repro.crypto.hashing import vertex_digest
from repro.dag.vertex import Vertex, make_vertex
from repro.netexec.codec import (
    MAX_FRAME_BYTES,
    MAX_FRONTIER_ROUNDS,
    MAX_MASK_BYTES,
    MESSAGE_TYPES,
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


def _sample_vertex() -> Vertex:
    return make_vertex(
        2,
        1,
        edges=[VertexId(1, 0), VertexId(1, 2), VertexId(1, 3)],
        block=(Transaction(7, 1, 0.0, 1),),
        created_at=3.5,
    )


def _sample_of_each_type():
    """One concrete instance per registered wire type."""
    vertex = _sample_vertex()
    schedule = LeaderSchedule(epoch=1, initial_round=4, slots=(0, 1, 2, 3))
    snapshot = ConsensusSnapshot(
        last_ordered_anchor_round=4,
        gc_round=2,
        schedules=(schedule,),
        scores={0: 1.0, 1: 0.5},
        commits_in_epoch=3,
        ordered_vertices=frozenset({VertexId(2, 1), VertexId(2, 0)}),
        vote_accounting=((1, 2), (3,)),
    )
    certificate = CertificateMessage(
        origin=1, round=2, digest=vertex.digest, payload=vertex, signers=(0, 2, 3)
    )
    return [
        Hello(node_id=3),
        VertexId(5, 2),
        vertex,
        Transaction(11, 2, 1.25, 3, kind="counter_increment", payload_bytes=64),
        schedule,
        snapshot,
        FetchRequest(
            requester=2,
            missing=(VertexId(3, 0), VertexId(3, 1)),
            horizon=1,
            # Round 2's mask is wider than the 64-bit wire integer.
            held=((1, 0b1111), (2, (1 << 99) | 0b0101)),
        ),
        FetchResponse(responder=0, vertices=(vertex,), responder_gc_round=1, snapshot=snapshot),
        BroadcastMessage(origin=0, round=1, digest=b"\x01" * 32),
        ProposeMessage(origin=0, round=2, digest=vertex.digest, payload=vertex),
        PiggybackedPropose(
            origin=0, round=2, digest=vertex.digest, payload=vertex,
            certificates=(certificate,),
        ),
        AckMessage(origin=0, round=2, digest=vertex.digest, voter=3),
        certificate,
        CertificateBatch(origin=1, round=2, digest=vertex.digest, certificates=(certificate,)),
    ]


class TestRoundTrips:
    def test_every_registered_type_has_a_sample(self):
        """The sample list must cover the registry, so a newly registered
        type without a round-trip test fails here, loudly."""
        sampled = {type(message) for message in _sample_of_each_type()}
        assert sampled == set(MESSAGE_TYPES)

    @pytest.mark.parametrize(
        "message", _sample_of_each_type(), ids=lambda m: type(m).__name__
    )
    def test_round_trip_byte_identical(self, message):
        wire = encode(message)
        decoded = decode(wire)
        assert decoded == message
        assert type(decoded) is type(message)
        assert encode(decoded) == wire

    def test_framed_round_trip(self):
        batch = _sample_of_each_type()
        stream = b"".join(encode_frame(message) for message in batch)
        values, remainder = decode_frames(stream)
        assert list(values) == batch
        assert remainder == b""

    def test_bool_and_int_stay_distinct(self):
        assert decode(encode(True)) is True
        assert decode(encode(1)) == 1
        assert encode(True) != encode(1)


class TestDefensiveDecoding:
    def test_truncated_body_rejected(self):
        # Every strict prefix, so each tag's bounds check is cut into:
        # tags, type codes, counts, integers, floats and raw bytes.
        for sample in _sample_of_each_type():
            wire = encode(sample)
            for cut in range(len(wire)):
                with pytest.raises(CodecError):
                    decode(wire[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            decode(encode(Hello(1)) + b"\x00")

    def test_unknown_tag_rejected(self):
        with pytest.raises(CodecError, match="unknown value tag"):
            decode(b"Z")

    @pytest.mark.parametrize("code", [0xFE, 14, 15], ids=["unassigned", "retired-14", "retired-15"])
    def test_unknown_object_code_rejected(self, code):
        with pytest.raises(CodecError, match="unknown wire type code"):
            decode(b"O" + bytes([code]))

    def test_unregistered_type_not_encodable(self):
        with pytest.raises(CodecError, match="not wire-encodable"):
            encode(object())

    def test_int_beyond_64_bits_not_encodable(self):
        with pytest.raises(CodecError, match="64-bit"):
            encode(2**63)

    def test_hostile_length_field_rejected_before_allocation(self):
        # A string claiming 4 GiB of content with a 1-byte body.
        blob = b"S" + struct.pack(">I", 0xFFFFFFFF) + b"x"
        with pytest.raises(CodecError, match="exceeds the remaining body"):
            decode(blob)

    def test_duplicate_dict_keys_rejected(self):
        body = b"D" + struct.pack(">I", 2)
        body += encode(1) + encode("a")
        body += encode(1) + encode("b")
        with pytest.raises(CodecError, match="duplicate keys"):
            decode(body)

    def test_duplicate_set_items_rejected(self):
        body = b"E" + struct.pack(">I", 2) + encode(1) + encode(1)
        with pytest.raises(CodecError, match="duplicate items"):
            decode(body)

    def test_forged_vertex_digest_rejected(self):
        vertex = _sample_vertex()
        forged = Vertex(
            id=vertex.id,
            edges=vertex.edges,
            block=vertex.block,
            digest=vertex_digest(99, 99, [], 0),  # a valid digest of other content
            created_at=vertex.created_at,
        )
        with pytest.raises(CodecError, match="digest mismatch"):
            decode(encode(forged))


def _fetch_request_wire(requester=2, missing=(VertexId(3, 0),), horizon=1, held=((1, b"\x0f"),)):
    """A code-7 body built field by field, so a test can forge any one."""
    return b"O\x07" + b"".join(encode(field) for field in (requester, missing, horizon, held))


class TestHostileFetchRequest:
    def test_forged_body_helper_matches_the_encoder(self):
        request = FetchRequest(2, (VertexId(3, 0),), horizon=1, held=((1, 0b1111),))
        assert _fetch_request_wire() == encode(request)
        assert decode(_fetch_request_wire()) == request

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"horizon": -1}, "horizon"),
            ({"horizon": 1.5}, "horizon"),
            ({"horizon": True}, "horizon"),
            ({"missing": (3,)}, "vertex ids"),
            ({"missing": (VertexId(3, 0.5),)}, "vertex ids"),
            ({"missing": 7}, "must decode to a tuple"),
            ({"held": 7}, "frontier must be a tuple"),
            ({"held": ((1, b"\x01"),) * 2}, "strictly ascending"),
            ({"held": ((2, b"\x01"), (1, b"\x01"))}, "strictly ascending"),
            ({"held": ((-1, b"\x01"),)}, "non-negative"),
            ({"held": ((1, 15),)}, "frontier mask"),
            ({"held": ((1, b"\x00\x0f"),)}, "minimal"),
            ({"held": ((1, b"\xff" * (MAX_MASK_BYTES + 1)),)}, "frontier mask"),
            ({"held": ((1,),)}, "pairs"),
            ({"held": (VertexId(1, 2),)}, "pairs"),
        ],
    )
    def test_malformed_frontier_rejected(self, fields, reason):
        with pytest.raises(CodecError, match=reason):
            decode(_fetch_request_wire(**fields))

    def test_frontier_round_count_is_bounded(self):
        held = tuple((round_number, b"\x01") for round_number in range(MAX_FRONTIER_ROUNDS + 1))
        with pytest.raises(CodecError, match=f"at most {MAX_FRONTIER_ROUNDS} rounds"):
            decode(_fetch_request_wire(held=held))
        assert len(decode(_fetch_request_wire(held=held[:-1])).held) == MAX_FRONTIER_ROUNDS

    def test_widest_mask_and_empty_mask_round_trip(self):
        widest = (1 << (8 * MAX_MASK_BYTES)) - 1
        request = FetchRequest(0, (), horizon=0, held=((4, 0), (5, widest)))
        assert decode(encode(request)) == request

    @pytest.mark.parametrize(
        "held",
        [((1, -1),), ((1, 1 << (8 * MAX_MASK_BYTES)),), ((0, 1),) * (MAX_FRONTIER_ROUNDS + 1)],
        ids=["negative", "too-wide", "too-many-rounds"],
    )
    def test_out_of_range_frontier_not_encodable(self, held):
        with pytest.raises(CodecError, match="frontier"):
            encode(FetchRequest(0, (), horizon=0, held=held))


class TestFraming:
    def test_zero_length_frame_rejected(self):
        with pytest.raises(FrameError, match="frame length 0"):
            decode_frames(struct.pack(">I", 0))

    def test_oversized_frame_rejected(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="outside"):
            decode_frames(header)

    def test_incomplete_frame_stays_in_remainder(self):
        frame = encode_frame(Hello(5))
        values, remainder = decode_frames(frame[:-2])
        assert values == ()
        assert remainder == frame[:-2]

    def test_partial_header_stays_in_remainder(self):
        values, remainder = decode_frames(b"\x00\x00")
        assert values == ()
        assert remainder == b"\x00\x00"
