"""A transport's ``VertexMemo`` changes what the codec costs, never what it says.

The memo maps the exact bytes of a vertex encoding to the vertex
``_build_vertex`` accepted from them, a vertex object an encoder wrote
to its bytes, and the exact body of a proposal, certificate or batch
frame to the message its first decode accepted, so a socket run encodes
each vertex once and decodes each broadcast frame once, however many
validators receive it.  Held here:

* *decoding* — every frame of a transport's traffic decoded through one
  memo gets the verdict the reference decoder gives that frame alone: the
  same value, or the same error class and text.  Traffic is generated
  messages with the certificate that re-ships each vertex, sampled
  mutations, every hostile family of the differential suite, and
  hand-written pairs aimed at the memo: a vertex with the same
  ``(round, source, digest)`` but another block or ``created_at`` (the
  digest covers neither), a vertex one byte off a remembered one, an
  off-layout frame in between, a forged digest first, a forged vertex
  its own transport encoded;
* *broadcast* — generated frames, valid and hostile, each repeated to
  several receivers and interleaved, decode through one memo as each
  decodes alone without one, refusals and their text included, and every
  repeat of a broadcast frame a layout accepted is the first receiver's
  message;
* *encoding* — ``encode_frame(m, memo) == encode_frame(m)`` for every
  message a socket run sends and for generated sequences;
* six source mutants of ``codec.py`` (a memo keyed on
  ``(round, source, digest)``, a memo filled before ``_build_vertex``
  accepted the vertex, an encode hit by equality instead of identity, the
  decode map seeded by the encoder, the frame table seeded by the
  encoder, a frame shared before its body was consumed), each killed by
  the script written for it.
"""

from __future__ import annotations

import collections
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netexec.codec as codec
import repro.netexec.transport as transport_module
import tests.reference_codec as reference_codec
from repro.dag.vertex import Vertex
from repro.netexec.codec import VertexMemo, decode, encode, encode_frame
from repro.netexec.runner import run_net_experiment
from repro.node.messages import FetchResponse
from repro.rbc.messages import AckMessage, CertificateBatch, CertificateMessage, ProposeMessage
from repro.sim.experiment import ExperimentConfig
from repro.workload.transactions import Transaction
from tests.property.test_prop_codec_differential import (
    HOSTILE_FAMILIES,
    _forged_digest_frames,
    _frames_around,
    _out_of_range_source_frames,
    _swapped_tag_frames,
    _vertex,
    _vertex_wire,
    flipped,
    full_vertices,
    hot_messages,
    retagged,
    tag_positions,
    verdict,
)
from tests.mutants import load_mutant
from tests.property.test_prop_netexec_codec import digests, messages, rounds, validator_ids

DIGEST = b"\x07" * 32
SHARED = (ProposeMessage, CertificateMessage, CertificateBatch)


def carried_vertices(message):
    """The vertices a message carries where a memo can remember them."""
    if isinstance(message, CertificateBatch):
        return [certificate.payload for certificate in message.certificates]
    payload = getattr(message, "payload", None)
    return [payload] if isinstance(payload, Vertex) else []


def remembered(memo):
    """The ids of the vertex objects ``memo`` holds."""
    return {id(vertex) for vertex, _ in memo.entries.values()}


def by_name(error):
    """A mutant module defines its own CodecError: compare classes by name."""
    return type(error).__name__


def link_verdicts(frames, decoder=decode, memo=None, tally=None):
    """Each frame's verdict, decoded in order through one memo; ``tally``
    counts the frames that carried a remembered vertex object."""
    memo = VertexMemo() if memo is None else memo
    verdicts = []
    for frame in frames:
        held, decoded = remembered(memo), []

        def through_memo(wire, decoded=decoded):
            decoded.append(decoder(wire, memo))
            return decoded[0]

        verdicts.append(verdict(through_memo, frame, by_name))
        if tally is not None and decoded:
            tally["hits"] += any(id(vertex) in held for vertex in carried_vertices(decoded[0]))
    return verdicts


def reference_verdicts(frames):
    return [verdict(reference_codec.decode, frame, by_name) for frame in frames]


def assert_link_agrees(frames, tally=None):
    produced = link_verdicts(frames, tally=tally)
    expected = reference_verdicts(frames)
    for index, (mine, theirs) in enumerate(zip(produced, expected)):
        assert mine == theirs, (
            f"frame {index} of {len(frames)} ({frames[index][:24].hex()}...): "
            f"through a memo {mine!r}, alone by the reference {theirs!r}"
        )


def propose(vertex):
    return encode(ProposeMessage(3, 2, DIGEST, vertex))


def certificate(vertex):
    return encode(CertificateBatch(3, 2, DIGEST, (CertificateMessage(3, 2, DIGEST, vertex, (0, 1, 2)),)))


# -- generated transport traffic -----------------------------------------------------------------


proposals = st.builds(ProposeMessage, origin=validator_ids, round=rounds, digest=digests, payload=full_vertices)


@st.composite
def link_traffic(draw):
    """Generated messages and a proposal, each vertex re-shipped by a
    certificate right behind it, then a sampled hostile edit of each of
    those frames.  The proposal's certificate is a memo hit whatever else
    is drawn, so the hit path runs in every example."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    batch = draw(st.lists(st.one_of(messages, hot_messages), min_size=1, max_size=5))
    batch.insert(draw(st.integers(min_value=0, max_value=len(batch))), draw(proposals))
    frames = []
    for message in batch:
        wires = [encode(message)] + [certificate(vertex) for vertex in carried_vertices(message)]
        frames.extend(wires)
        for wire in wires:
            frames.append(rng.choice([
                wire[:rng.randrange(len(wire))],
                wire + b"N",
                flipped(wire, rng.randrange(len(wire)), rng.randrange(1, 256)),
                retagged(wire, rng.choice(tag_positions(wire)), rng.choice(b"NTFIRSYLEDO")),
            ]))
    return frames


def test_generated_link_traffic_agrees_frame_by_frame():
    tally = collections.Counter()

    @given(link_traffic())
    @settings(max_examples=300, deadline=None)
    def check(frames):
        assert_link_agrees(frames, tally)
        tally["frames"] += len(frames)

    check()
    # The hit path ran: certificates answered from the memo, not re-parsed.
    assert tally["frames"] >= 1000 and tally["hits"] >= 100, tally


# -- hand-written pairs aimed at the memo ----------------------------------------------------------


def test_same_round_source_and_digest_with_another_block_or_created_at():
    """The digest covers neither, so a memo keyed on it would answer wrongly."""
    vertex = _vertex()
    later = dataclasses.replace(vertex, created_at=4.5)
    other_block = dataclasses.replace(vertex, block=(Transaction(8, 2, 0.25, 1),))
    assert (later.id, later.digest) == (other_block.id, other_block.digest) == (vertex.id, vertex.digest)
    frames = [propose(vertex), certificate(later), certificate(other_block), certificate(vertex)]
    assert_link_agrees(frames)
    memo = VertexMemo()
    values = [decode(frame, memo) for frame in frames]
    assert [value.certificates[0].payload for value in values[1:3]] == [later, other_block]
    # Three encodings, three entries; the last frame was answered by the first's.
    assert len(memo.entries) == 3
    assert values[3].certificates[0].payload is values[0].payload


def test_every_receiver_after_the_first_gets_the_vertex_already_decoded():
    """One memo serves every link: the vertex is built once, whichever
    frame carried it first."""
    vertex = _vertex()
    memo = VertexMemo()
    first = decode(certificate(vertex), memo).certificates[0].payload
    for frame in (propose(vertex), certificate(vertex), propose(vertex)):
        (carried,) = carried_vertices(decode(frame, memo))
        assert carried is first
    assert len(memo.entries) == 1


def one_byte_off(wire):
    """Every single-byte flip, one byte short, and one byte more."""
    yield from (flipped(wire, index, 0x01) for index in range(len(wire)))
    yield wire[:-1]
    yield wire + b"N"


def test_a_vertex_one_byte_off_the_remembered_one():
    vertex = _vertex()
    primer = propose(vertex)
    for edited in one_byte_off(_vertex_wire(vertex)):
        for frame in _frames_around(edited).values():
            assert_link_agrees([primer, frame, primer, frame])


def test_an_off_layout_frame_in_between_leaves_the_memo_alone():
    vertex = _vertex()
    memo = VertexMemo()
    decoded = decode(propose(vertex), memo)
    entries = dict(memo.entries)
    between = [
        encode(FetchResponse(responder=1, vertices=(vertex,), responder_gc_round=0, snapshot=None)),
        *_swapped_tag_frames(),
    ]
    frames = [propose(vertex), *between, certificate(vertex)]
    assert_link_agrees(frames)
    for frame in between:
        try:
            decode(frame, memo)
        except codec.CodecError:
            pass
    assert memo.entries == entries
    assert decode(certificate(vertex), memo).certificates[0].payload is decoded.payload


def test_a_forged_digest_first_is_never_remembered():
    forged = _forged_digest_frames()
    frames = forged + forged + [propose(_vertex())] + forged
    assert_link_agrees(frames)
    memo = VertexMemo()
    link_verdicts(forged, memo=memo)
    assert memo.entries == memo.frames == {} and memo.held_bytes == 0


def test_a_forged_vertex_its_own_transport_encoded_is_still_refused():
    """A sender in the same process encodes a forged-digest vertex through
    the memo its receivers decode through: they must still refuse it."""
    memo = VertexMemo()
    for message in _forged_digest_messages():
        frame = encode_frame(message, memo)
        assert [kind for kind, *_ in link_verdicts([frame[4:] for _ in range(3)], memo=memo)] == ["raised"] * 3
    assert {type(key) for key in memo.entries} == {int} and memo.frames == {}


def test_a_source_outside_the_validator_ids_is_never_remembered():
    memo = VertexMemo()
    frames = _out_of_range_source_frames()
    assert all(kind == "raised" for kind, *_ in link_verdicts(frames, memo=memo))
    assert memo.entries == {} and memo.held_bytes == 0


@pytest.mark.parametrize("family", sorted(HOSTILE_FAMILIES))
def test_hostile_families_through_one_primed_memo(family):
    valid = list(_frames_around(_vertex_wire(_vertex())).values())
    hostile = HOSTILE_FAMILIES[family]()
    assert_link_agrees(valid + hostile + valid + hostile[::-1] + valid)


def test_an_encoding_above_64_kib_is_not_remembered():
    small = _vertex()
    big = _vertex(block=(Transaction(9, 1, 0.5, 1, kind="k" * (70 * 1024)),))
    memo = VertexMemo()
    assert encode_frame(ProposeMessage(3, 2, DIGEST, small), memo) == encode_frame(
        ProposeMessage(3, 2, DIGEST, small)
    )
    assert encode(big, memo) == encode(big) and remembered(memo) == {id(small)}
    memo = VertexMemo()
    kept = decode(propose(small), memo).payload
    assert decode(propose(big), memo).payload == big and remembered(memo) == {id(kept)}
    assert_link_agrees([propose(small), propose(big), certificate(big), certificate(small)])


# -- broadcast frames ------------------------------------------------------------------------------


@st.composite
def broadcast_traffic(draw):
    """Generated frames and a sampled hostile edit of each, every one of
    them as each of 2-5 receivers gets it: repeated, and interleaved."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    batch = draw(st.lists(st.one_of(messages, hot_messages), min_size=1, max_size=4))
    batch.append(draw(proposals))
    wires = [encode(message) for message in batch]
    wires += [
        rng.choice([
            wire[:rng.randrange(len(wire))],
            wire + b"N",
            flipped(wire, rng.randrange(len(wire)), rng.randrange(1, 256)),
            retagged(wire, rng.choice(tag_positions(wire)), rng.choice(b"NTFIRSYLEDO")),
        ])
        for wire in wires
    ]
    stream = wires * draw(st.integers(min_value=2, max_value=5))
    rng.shuffle(stream)
    return stream


def test_generated_broadcast_frames_decode_through_one_memo_as_each_alone():
    tally = collections.Counter()

    @given(broadcast_traffic())
    @settings(max_examples=200, deadline=None)
    def check(frames):
        memo, first = VertexMemo(), {}
        for frame in frames:
            decoded = []

            def through_memo(wire, decoded=decoded):
                decoded.append(decode(wire, memo))
                return decoded[0]

            mine, alone = verdict(through_memo, frame, by_name), verdict(decode, frame, by_name)
            assert mine == alone, f"{frame[:24].hex()}...: through a memo {mine!r}, alone {alone!r}"
            if frame in first:
                assert decoded[0] is first[frame]
                tally["repeats"] += 1
            elif frame in memo.frames:
                assert type(decoded[0]) in SHARED and memo.frames[frame][0] is decoded[0]
                first[frame] = decoded[0]
        assert memo.held_bytes == sum(len(wire) for _, wire in (*memo.entries.values(), *memo.frames.values()))

    check()
    # Repeats of the broadcast frames a layout accepted were answered
    # from the memo; an off-layout one is decoded by each receiver.
    assert tally["repeats"] >= 200, tally


def test_every_receiver_of_a_broadcast_frame_gets_one_message():
    vertex = _vertex()
    memo = VertexMemo()
    frames = [propose(vertex), certificate(vertex), encode(AckMessage(3, 2, DIGEST, 1))]
    firsts = [decode(frame, memo) for frame in frames]
    for _ in range(3):
        again = [decode(frame, memo) for frame in frames]
        assert [a is b for a, b in zip(again, firsts)] == [True, True, False]
        assert again[2] == firsts[2]
    # Acks go to one validator each: never kept.
    assert list(memo.frames) == frames[:2]


# -- encoding --------------------------------------------------------------------------------------


@given(st.lists(st.one_of(messages, hot_messages), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_generated_messages_encode_the_same_through_one_memo(batch):
    memo = VertexMemo()
    for message in batch:
        for again in (message, *[ProposeMessage(1, 2, DIGEST, v) for v in carried_vertices(message)]):
            assert encode_frame(again, memo) == encode_frame(again)


def test_an_equal_vertex_that_is_another_object_is_encoded_again():
    """``0.0 == -0.0``, so two equal vertices can differ on the wire."""
    proposals = _killing_encode_messages()
    first, second = (proposal.payload for proposal in proposals)
    assert first == second and encode(first) != encode(second)
    memo = VertexMemo()
    for proposal in proposals:
        assert encode_frame(proposal, memo) == encode_frame(proposal)
    assert remembered(memo) == {id(first), id(second)}


def test_every_frame_of_a_socket_run_encodes_the_same_with_a_memo(monkeypatch):
    tally = collections.Counter()

    def checked(message, memo=None):
        hit = memo is not None and any(id(vertex) in memo.entries for vertex in carried_vertices(message))
        framed = encode_frame(message, memo)
        if memo is not None:
            assert framed == encode_frame(message), message
            tally["hits" if hit else "misses"] += 1
            tally[type(message).__name__] += 1
        return framed

    monkeypatch.setattr(transport_module, "encode_frame", checked)
    config = ExperimentConfig(committee_size=4, input_load_tps=0.0, duration=8.0, warmup=0.0, seed=3)
    result = run_net_experiment(config)
    assert result.report.commits > 0
    # Every certificate re-ships the vertex its origin proposed last.
    assert tally["hits"] == tally["CertificateBatch"] > 0, tally


# -- the suite notices what it is there to notice -----------------------------------------------------

MEMO_MUTANTS = {
    "memo-keyed-on-round-source-digest": (
        "key = data[start:end]",
        "key = (head[7], head[9], data[end - 41:end - 9])",
    ),
    "memo-filled-before-the-vertex-is-accepted": (
        "    try:\n        # Not optional on this path either",
        "    if memo is not None:\n"
        "        memo.remember(key, Vertex(vertex_id, edges, block, fields[-3], fields[-1]), key)\n"
        "    try:\n        # Not optional on this path either",
    ),
    "encode-hit-by-equality": ("key = id(vertex)", "key = vertex"),
    "decode-map-seeded-by-the-encoder": (
        "memo.remember(key, vertex, encoded)",
        "memo.remember(key, vertex, encoded)\n        memo.remember(encoded, vertex, encoded)",
    ),
    "frame-table-seeded-by-the-encoder": (
        "    return _HEADER.pack(len(body)) + body",
        "    if memo is not None:\n        memo.share(body, value)\n    return _HEADER.pack(len(body)) + body",
    ),
    "frame-shared-before-its-body-is-consumed": (
        "            value, offset = by_layout(body, 0, memo)\n",
        "            value, offset = by_layout(body, 0, memo)\n            if shared:\n                memo.share(body, value)\n",
    ),
}


def _killing_decode_frames():
    vertex = _vertex()
    return [propose(vertex), certificate(dataclasses.replace(vertex, created_at=4.5))]


def _killing_encode_messages():
    vertex = dataclasses.replace(_vertex(), created_at=0.0)
    equal = dataclasses.replace(vertex, created_at=-0.0)
    return [ProposeMessage(3, 2, DIGEST, vertex), ProposeMessage(3, 2, DIGEST, equal)]


def _forged_digest_messages():
    vertex = _vertex()
    forged = dataclasses.replace(vertex, digest=bytes((vertex.digest[0] ^ 0x01,)) + vertex.digest[1:])
    return [ProposeMessage(3, 2, DIGEST, forged), CertificateMessage(3, 2, DIGEST, forged, (0, 1, 2))]


def _survives(module):
    """``module``'s verdicts on the five killing scripts equal the reference's."""
    scripts = (_killing_decode_frames(), _forged_digest_frames() * 2, [propose(_vertex()) + b"N"] * 2)
    decoded = all(
        link_verdicts(frames, module.decode, module.VertexMemo()) == reference_verdicts(frames)
        for frames in scripts
    )
    memo = module.VertexMemo()
    encoded = all(
        module.encode_frame(message, memo) == encode_frame(message)
        for message in _killing_encode_messages()
    )
    # A forged vertex encoded through the memo its receivers decode through.
    memo = module.VertexMemo()
    frames = [module.encode_frame(message, memo)[4:] for message in _forged_digest_messages()]
    refused = link_verdicts(frames, module.decode, memo) == reference_verdicts(frames)
    return decoded and encoded and refused


@pytest.mark.parametrize("mutant", sorted(MEMO_MUTANTS))
def test_the_memo_scripts_kill_the_source_mutant(mutant):
    original, replacement = MEMO_MUTANTS[mutant]
    assert not _survives(load_mutant(codec, [(original, replacement)])), f"{mutant} survives"
    # ... and the unmutated source, loaded the same way, survives them all.
    assert _survives(load_mutant(codec, []))
