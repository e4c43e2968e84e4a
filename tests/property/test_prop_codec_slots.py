"""A link end's ``VertexSlot`` changes what the codec costs, never what it says.

A slot remembers the vertex a link end encoded or decoded last, so the
certificate that re-ships a proposal's vertex is encoded once by its
sender and decoded once per receiving link end.  Held here:

* *decoding* — every frame of a link's traffic decoded through one slot
  gets the verdict the reference decoder gives that frame alone: the
  same value, or the same error class and text.  Traffic is generated
  messages with the certificate that re-ships each vertex, sampled
  mutations, every hostile family of the differential suite, and
  hand-written pairs aimed at the slot: a vertex with the same
  ``(round, source, digest)`` but another block or ``created_at`` (the
  digest covers neither), a vertex one byte off the remembered one, an
  off-layout frame in between, a forged digest first;
* *encoding* — ``encode_frame(m, slot) == encode_frame(m)`` for every
  message a socket run sends and for generated sequences;
* three source mutants of ``codec.py`` (a slot keyed on
  ``(round, source, digest)``, a slot filled before ``_build_vertex``
  accepted the vertex, an encode hit by equality instead of identity),
  each killed by the pair written for it.
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
from repro.netexec.codec import VertexSlot, decode, encode, encode_frame
from repro.netexec.runner import run_net_experiment
from repro.node.messages import FetchResponse
from repro.rbc.messages import CertificateBatch, CertificateMessage, ProposeMessage
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


def carried_vertices(message):
    """The vertices a message carries where a slot can remember them."""
    if isinstance(message, CertificateBatch):
        return [certificate.payload for certificate in message.certificates]
    payload = getattr(message, "payload", None)
    return [payload] if isinstance(payload, Vertex) else []


def by_name(error):
    """A mutant module defines its own CodecError: compare classes by name."""
    return type(error).__name__


def link_verdicts(frames, decoder=decode, slot=None, tally=None):
    """Each frame's verdict, decoded in order through one slot; ``tally``
    counts the frames that carried the remembered vertex object."""
    slot = VertexSlot() if slot is None else slot
    verdicts = []
    for frame in frames:
        remembered, decoded = slot.vertex, []

        def through_slot(wire):
            decoded.append(decoder(wire, slot))
            return decoded[0]

        verdicts.append(verdict(through_slot, frame, by_name))
        if tally is not None and remembered is not None and decoded:
            tally["hits"] += any(vertex is remembered for vertex in carried_vertices(decoded[0]))
    return verdicts


def reference_verdicts(frames):
    return [verdict(reference_codec.decode, frame, by_name) for frame in frames]


def assert_link_agrees(frames, tally=None):
    produced = link_verdicts(frames, tally=tally)
    expected = reference_verdicts(frames)
    for index, (mine, theirs) in enumerate(zip(produced, expected)):
        assert mine == theirs, (
            f"frame {index} of {len(frames)} ({frames[index][:24].hex()}...): "
            f"through a slot {mine!r}, alone by the reference {theirs!r}"
        )


def propose(vertex):
    return encode(ProposeMessage(3, 2, DIGEST, vertex))


def certificate(vertex):
    return encode(CertificateBatch(3, 2, DIGEST, (CertificateMessage(3, 2, DIGEST, vertex, (0, 1, 2)),)))


# -- generated link traffic --------------------------------------------------------------------


proposals = st.builds(ProposeMessage, origin=validator_ids, round=rounds, digest=digests, payload=full_vertices)


@st.composite
def link_traffic(draw):
    """Generated messages and a proposal, each vertex re-shipped by a
    certificate right behind it, then a sampled hostile edit of each of
    those frames.  The proposal's certificate is a slot hit whatever else
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
    # The hit path ran: certificates answered from the slot, not re-parsed.
    assert tally["frames"] >= 1000 and tally["hits"] >= 100, tally


# -- hand-written pairs aimed at the slot ----------------------------------------------------------


def test_same_round_source_and_digest_with_another_block_or_created_at():
    """The digest covers neither, so a slot keyed on it would answer wrongly."""
    vertex = _vertex()
    later = dataclasses.replace(vertex, created_at=4.5)
    other_block = dataclasses.replace(vertex, block=(Transaction(8, 2, 0.25, 1),))
    assert (later.id, later.digest) == (other_block.id, other_block.digest) == (vertex.id, vertex.digest)
    frames = [propose(vertex), certificate(later), certificate(other_block), certificate(vertex)]
    assert_link_agrees(frames)
    slot = VertexSlot()
    values = [decode(frame, slot) for frame in frames]
    assert [value.certificates[0].payload for value in values[1:3]] == [later, other_block]


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


def test_an_off_layout_frame_in_between_leaves_the_slot_alone():
    vertex = _vertex()
    slot = VertexSlot()
    decoded = decode(propose(vertex), slot)
    between = [
        encode(FetchResponse(responder=1, vertices=(vertex,), responder_gc_round=0, snapshot=None)),
        *_swapped_tag_frames(),
    ]
    frames = [propose(vertex), *between, certificate(vertex)]
    assert_link_agrees(frames)
    for frame in between:
        try:
            decode(frame, slot)
        except codec.CodecError:
            pass
    assert decode(certificate(vertex), slot).certificates[0].payload is decoded.payload


def test_a_forged_digest_first_is_never_remembered():
    forged = _forged_digest_frames()
    frames = forged + forged + [propose(_vertex())] + forged
    assert_link_agrees(frames)
    slot = VertexSlot()
    link_verdicts(forged, slot=slot)
    assert slot.vertex is None and slot.encoded == b""


def test_a_source_outside_the_validator_ids_is_never_remembered():
    slot = VertexSlot()
    frames = _out_of_range_source_frames()
    assert all(kind == "raised" for kind, *_ in link_verdicts(frames, slot=slot))
    assert slot.vertex is None and slot.encoded == b""


@pytest.mark.parametrize("family", sorted(HOSTILE_FAMILIES))
def test_hostile_families_through_one_primed_slot(family):
    valid = list(_frames_around(_vertex_wire(_vertex())).values())
    hostile = HOSTILE_FAMILIES[family]()
    assert_link_agrees(valid + hostile + valid + hostile[::-1] + valid)


def test_an_encoding_above_64_kib_is_not_remembered():
    small = _vertex()
    big = _vertex(block=(Transaction(9, 1, 0.5, 1, kind="k" * (70 * 1024)),))
    slot = VertexSlot()
    assert encode_frame(ProposeMessage(3, 2, DIGEST, small), slot) == encode_frame(
        ProposeMessage(3, 2, DIGEST, small)
    )
    assert encode(big, slot) == encode(big) and slot.vertex is small
    slot = VertexSlot()
    remembered = decode(propose(small), slot).payload
    assert decode(propose(big), slot).payload == big and slot.vertex is remembered
    assert_link_agrees([propose(small), propose(big), certificate(big), certificate(small)])


# -- encoding --------------------------------------------------------------------------------------


@given(st.lists(st.one_of(messages, hot_messages), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_generated_messages_encode_the_same_through_one_slot(batch):
    slot = VertexSlot()
    for message in batch:
        for again in (message, *[ProposeMessage(1, 2, DIGEST, v) for v in carried_vertices(message)]):
            assert encode_frame(again, slot) == encode_frame(again)


def test_an_equal_vertex_that_is_another_object_is_encoded_again():
    """``0.0 == -0.0``, so two equal vertices can differ on the wire."""
    proposals = _killing_encode_messages()
    first, second = (proposal.payload for proposal in proposals)
    assert first == second and encode(first) != encode(second)
    slot = VertexSlot()
    for proposal in proposals:
        assert encode_frame(proposal, slot) == encode_frame(proposal)
    assert slot.vertex is second


def test_every_frame_of_a_socket_run_encodes_the_same_with_a_slot(monkeypatch):
    tally = collections.Counter()

    def checked(message, slot=None):
        hit = slot is not None and any(vertex is slot.vertex for vertex in carried_vertices(message))
        framed = encode_frame(message, slot)
        if slot is not None:
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

SLOT_MUTANTS = {
    "slot-keyed-on-round-source-digest": (
        "data.startswith(slot.encoded, start)",
        "slot.vertex.id == (head[7], head[9])"
        " and data.startswith(slot.vertex.digest, start + len(slot.encoded) - 41)",
    ),
    "slot-filled-before-the-vertex-is-accepted": (
        "    try:\n        # Not optional on this path either",
        "    slot.remember(Vertex(vertex_id, edges, block, fields[-3], fields[-1]), data[start:offset])\n"
        "    try:\n        # Not optional on this path either",
    ),
    "encode-hit-by-equality": ("slot.vertex is value", "slot.vertex == value"),
}


def _killing_decode_frames():
    vertex = _vertex()
    return [propose(vertex), certificate(dataclasses.replace(vertex, created_at=4.5))]


def _killing_encode_messages():
    vertex = dataclasses.replace(_vertex(), created_at=0.0)
    equal = dataclasses.replace(vertex, created_at=-0.0)
    return [ProposeMessage(3, 2, DIGEST, vertex), ProposeMessage(3, 2, DIGEST, equal)]


def _survives(module):
    """``module``'s verdicts on the three killing scripts equal the reference's."""
    scripts = (_killing_decode_frames(), _forged_digest_frames() * 2)
    decoded = all(
        link_verdicts(frames, module.decode, module.VertexSlot()) == reference_verdicts(frames)
        for frames in scripts
    )
    slot = module.VertexSlot()
    encoded = all(
        module.encode_frame(message, slot) == encode_frame(message)
        for message in _killing_encode_messages()
    )
    return decoded and encoded


@pytest.mark.parametrize("mutant", sorted(SLOT_MUTANTS))
def test_the_slot_scripts_kill_the_source_mutant(mutant):
    original, replacement = SLOT_MUTANTS[mutant]
    assert not _survives(load_mutant(codec, [(original, replacement)])), f"{mutant} survives"
    # ... and the unmutated source, loaded the same way, survives them all.
    assert _survives(load_mutant(codec, []))
