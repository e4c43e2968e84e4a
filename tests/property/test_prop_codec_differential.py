"""Differential suite: ``repro.netexec.codec.decode`` against the oracle.

``tests/reference_codec.py`` is the recursive decoder the codec shipped
before the propose / ack / certificate frames got layout-compiled
decoders.  For every byte string here — encodings of generated messages
and *mutations* of them — the two must return equal values of equal
type, or raise the same exception class with the same message: same
wire, same verdicts.

Mutations are the hostile half: every strict prefix, single-byte flips,
a tag byte swapped for each other tag, count fields moved by one or set
to 2**32 - 1, two frames spliced, an edge duplicated inside a set, a
forged vertex digest, a negative round, signer tuples of committees past
64.  The last class of tests mutates the *production source* (a skipped
tag comparison, a skipped set-size check, a skipped digest
recomputation, a skipped source or round bound, an unchecked trailing
byte) and requires the same corpus to notice.
"""

from __future__ import annotations

import ast
import collections
import random
import struct
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netexec.codec as codec
import tests.reference_codec as reference_codec
from repro.crypto.hashing import vertex_digest
from repro.dag.vertex import Vertex
from repro.netexec.codec import CodecError, decode, encode
from repro.rbc.messages import (
    AckMessage,
    CertificateBatch,
    CertificateMessage,
    ProposeMessage,
)
from repro.types import VertexId
from repro.workload.transactions import Transaction
from tests.mutants import load_mutant
from tests.property.test_prop_netexec_codec import (
    digests,
    messages,
    rounds,
    validator_ids,
    vertices,
)

TAGS = b"NTFIRSYLEDO"
COUNTED_TAGS = b"LESYD"
_COUNT = struct.Struct(">I")


# -- the comparison ------------------------------------------------------------------


def verdict(decoder, wire, exception_key=type):
    """What ``decoder`` makes of ``wire``, in a form two decoders can share.

    A value is compared by type and canonical re-encoding, which tells
    ``1`` from ``1.0`` from ``True``, sees inside every container and
    treats NaN payloads bit for bit.
    """
    try:
        value = decoder(wire)
    except Exception as error:  # noqa: BLE001 - class and text are the verdict
        return ("raised", exception_key(error), str(error))
    return ("value", type(value).__name__, encode(value))


def assert_same_verdict(wire):
    produced = verdict(decode, wire)
    expected = verdict(reference_codec.decode, wire)
    assert produced == expected, (
        f"decoders disagree on {len(wire)} bytes {wire[:48].hex()}...: "
        f"production {produced!r}, reference {expected!r}"
    )


# -- mutations of a valid encoding -----------------------------------------------------


def strict_prefixes(wire):
    return (wire[:cut] for cut in range(len(wire)))


def flipped(wire, index, mask):
    return wire[:index] + bytes((wire[index] ^ mask,)) + wire[index + 1:]


def byte_flips(wire, mask=0x01):
    return (flipped(wire, index, mask) for index in range(len(wire)))


def tag_positions(wire):
    """Every byte that reads as a tag (a superset of the bytes that are one)."""
    return [index for index, byte in enumerate(wire) if byte in TAGS]


def retagged(wire, index, tag):
    return wire[:index] + bytes((tag,)) + wire[index + 1:]


def tag_swaps(wire):
    """Each tag byte replaced by each other tag."""
    for index in tag_positions(wire):
        for tag in TAGS:
            if tag != wire[index]:
                yield retagged(wire, index, tag)


def count_positions(wire):
    """Every ``>I`` that sits behind a counted tag."""
    return [
        index + 1
        for index, byte in enumerate(wire)
        if byte in COUNTED_TAGS and index + 5 <= len(wire)
    ]


def count_edits(wire, positions=None):
    """Each listed count: one less, one more, 2**32 - 1."""
    for index in count_positions(wire) if positions is None else positions:
        (count,) = _COUNT.unpack_from(wire, index)
        for edited in (count - 1, count + 1, 2**32 - 1):
            if 0 <= edited < 2**32 and edited != count:
                yield wire[:index] + _COUNT.pack(edited) + wire[index + 4:]


def splices(first, second):
    """Two frames joined whole, and joined at every eighth cut of each."""
    yield first + second
    yield first + second[:1]
    for cut in range(0, len(first), 8):
        yield first[:cut] + second[cut:]
        yield first[:cut] + second
    for cut in range(0, len(second), 8):
        yield first + second[cut:]


def all_mutations(wire, other):
    yield from strict_prefixes(wire)
    yield from byte_flips(wire)
    yield from byte_flips(wire, mask=0x80)
    yield from tag_swaps(wire)
    yield from count_edits(wire)
    yield from splices(wire, other)


# -- strategies for the frames that have a compiled layout -----------------------------------

wide_ids = st.integers(min_value=0, max_value=1023)
full_vertices = vertices()
wide_certificates = st.builds(
    CertificateMessage,
    origin=wide_ids,
    round=rounds,
    digest=digests,
    payload=full_vertices,
    # Committees past 64: more signers than a 64-bit mask has bits.
    signers=st.lists(wide_ids, min_size=43, max_size=140).map(tuple),
)
certificates = st.builds(
    CertificateMessage,
    origin=validator_ids,
    round=rounds,
    digest=digests,
    payload=full_vertices,
    signers=st.lists(validator_ids, max_size=7).map(tuple),
)
hot_messages = st.one_of(
    st.builds(
        ProposeMessage, origin=validator_ids, round=rounds, digest=digests, payload=full_vertices
    ),
    st.builds(
        AckMessage, origin=validator_ids, round=rounds, digest=digests, voter=validator_ids
    ),
    certificates,
    st.builds(
        CertificateBatch,
        origin=validator_ids,
        round=rounds,
        digest=digests,
        certificates=st.lists(certificates, max_size=3).map(tuple),
    ),
)


# -- the differential ----------------------------------------------------------------------


def test_generated_messages_and_sampled_mutations_agree():
    """>= 2,000 generated messages, each with a handful of mutations drawn
    from every family (>= 10,000 mutated encodings in all).  Messages are
    drawn five to an example: Hypothesis's per-example overhead is most
    of what a generated message costs."""
    tally = collections.Counter()
    batches = st.lists(st.one_of(messages, hot_messages), min_size=5, max_size=5)

    @given(batches, st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=400, deadline=None)
    def check(batch, seed):
        rng = random.Random(seed)
        wires = [encode(message) for message in batch]
        for wire, other in zip(wires, wires[1:] + wires[:1]):
            assert_same_verdict(wire)
            mutated = [
                wire[:rng.randrange(len(wire))],
                wire + bytes((rng.randrange(256),)),
                wire + other,
                wire[:rng.randrange(len(wire))] + other[rng.randrange(len(other)):],
                flipped(wire, rng.randrange(len(wire)), rng.randrange(1, 256)),
                retagged(wire, rng.choice(tag_positions(wire)), rng.choice(TAGS)),
            ]
            counts = count_positions(wire)
            if counts:
                mutated.append(rng.choice(list(count_edits(wire, [rng.choice(counts)]))))
            for candidate in mutated:
                assert_same_verdict(candidate)
            tally["messages"] += 1
            tally["mutations"] += len(mutated)

    check()
    assert tally["messages"] >= 2000 and tally["mutations"] >= 10000, tally


@given(hot_messages, hot_messages)
@settings(max_examples=20, deadline=None)
def test_every_mutation_of_a_hot_frame_agrees(message, other):
    """Exhaustive over positions: every prefix, every flip, every tag swap,
    every count edit, splices at every eighth byte."""
    for candidate in all_mutations(encode(message), encode(other)):
        assert_same_verdict(candidate)


@given(st.one_of(wide_certificates, st.builds(
    CertificateBatch,
    origin=wide_ids,
    round=rounds,
    digest=digests,
    certificates=st.lists(wide_certificates, min_size=1, max_size=2).map(tuple),
)))
@settings(max_examples=25, deadline=None)
def test_wide_committee_signer_tuples_agree(message):
    wire = encode(message)
    assert decode(wire) == message
    assert_same_verdict(wire)
    for candidate in count_edits(wire):
        assert_same_verdict(candidate)


def test_runs_past_the_layout_cap_decode_through_the_generic_decoder():
    """A committee or a block wider than the layouts compile for is still a
    legal frame: same value, by the other decoder."""
    over = codec._MAX_RUN + 6
    block = tuple(Transaction(index, 1, 0.5, 1) for index in range(over))
    digest = b"\x07" * 32
    for message in (
        # Sources stop at 1,024 validators: a longer edge run spans two rounds.
        ProposeMessage(1, 2, digest, _vertex(range(over // 2), (), edge_rounds=(0, 1))),
        ProposeMessage(1, 2, digest, _vertex((0, 1, 2), block)),
        CertificateMessage(1, 2, digest, _vertex(), tuple(range(over))),
    ):
        wire = encode(message)
        assert decode(wire) == message
        assert_same_verdict(wire)


# -- hostile frames written out by hand --------------------------------------------------------

_BLOCK = (Transaction(7, 1, 0.5, 1),)


def _vertex(edge_sources=(0, 1, 2), block=_BLOCK, edge_rounds=(1,)):
    edges = frozenset(
        VertexId(edge_round, source) for edge_round in edge_rounds for source in edge_sources
    )
    return Vertex(
        id=VertexId(2, 1),
        edges=edges,
        block=tuple(block),
        digest=vertex_digest(2, 1, sorted(edges), len(block)),
        created_at=3.5,
    )


def _frames_around(vertex_wire):
    """The three frames that carry a vertex, around the given vertex bytes."""
    digest = b"\x07" * 32
    head = encode(3) + encode(2) + encode(digest)
    certificate = b"O\x0c" + head + vertex_wire + encode((0, 1, 2))
    return {
        "vertex": vertex_wire,
        "propose": b"O\x0a" + head + vertex_wire,
        "certificate": certificate,
        "batch": b"O\x0d" + head + b"L" + _COUNT.pack(2) + certificate + certificate,
    }


def _vertex_wire(vertex, edges_wire=None, digest=None):
    """``encode(vertex)`` with the edge set or the digest replaced."""
    if edges_wire is None:
        edges_wire = encode(frozenset(vertex.edges))
    return (
        b"O\x03"
        + encode(vertex.id)
        + edges_wire
        + encode(vertex.block)
        + encode(vertex.digest if digest is None else digest)
        + encode(vertex.created_at)
    )


def test_hand_built_frames_are_the_canonical_encoding():
    vertex = _vertex()
    frames = _frames_around(_vertex_wire(vertex))
    certificate = CertificateMessage(3, 2, b"\x07" * 32, vertex, (0, 1, 2))
    assert frames["vertex"] == encode(vertex)
    assert frames["propose"] == encode(ProposeMessage(3, 2, b"\x07" * 32, vertex))
    assert frames["certificate"] == encode(certificate)
    assert frames["batch"] == encode(
        CertificateBatch(3, 2, b"\x07" * 32, (certificate, certificate))
    )


def _duplicated_edge_frames():
    vertex = _vertex()
    edge = encode(VertexId(1, 0))
    other = encode(VertexId(1, 2))
    # Three slots, one edge twice: the count is honest, the set is not.
    repeated = b"E" + _COUNT.pack(3) + edge + edge + other
    # The same with the count raised to match a fourth, repeated slot.
    padded = b"E" + _COUNT.pack(4) + edge + encode(VertexId(1, 1)) + other + other
    return [
        frame
        for edges_wire in (repeated, padded)
        for frame in _frames_around(_vertex_wire(vertex, edges_wire=edges_wire)).values()
    ]


def _forged_digest_frames():
    vertex = _vertex()
    forged = bytes((vertex.digest[0] ^ 0x01,)) + vertex.digest[1:]
    return list(_frames_around(_vertex_wire(vertex, digest=forged)).values())


def _unsorted_edge_frames():
    """A set the sender did not sort: not canonical, but still a set."""
    vertex = _vertex()
    edges_wire = b"E" + _COUNT.pack(3) + b"".join(
        encode(VertexId(1, source)) for source in (2, 0, 1)
    )
    return list(_frames_around(_vertex_wire(vertex, edges_wire=edges_wire)).values())


def _trailing_byte_frames():
    frames = _frames_around(_vertex_wire(_vertex()))
    frames["ack"] = encode(AckMessage(3, 2, b"\x07" * 32, 1))
    return [frame + tail for frame in frames.values() for tail in (b"N", b"\x00", b"O\x0b")]


def _swapped_tag_frames():
    """An integer field re-tagged as the float with the same eight bytes."""
    frames = dict(_frames_around(_vertex_wire(_vertex())))
    frames["ack"] = encode(AckMessage(3, 2, b"\x07" * 32, 1))
    swapped = []
    for frame in frames.values():
        for index in range(len(frame)):
            if frame[index:index + 1] == b"I":
                swapped.append(frame[:index] + b"R" + frame[index + 1:])
    return swapped


def _source_vertex_wire(source, edge_sources):
    """A vertex naming any source and edge sources, with the true digest."""
    edges = frozenset(VertexId(1, edge_source) for edge_source in edge_sources)
    block = (Transaction(7, 1, 0.5, 1),)
    digest = vertex_digest(2, source, sorted(edges), len(block))
    return b"O\x03" + b"".join(
        encode(field) for field in (VertexId(2, source), edges, block, digest, 3.5)
    )


def _out_of_range_source_frames():
    """A vertex, or one of its edges, naming an id no validator has."""
    return [
        frame
        for source, edge_sources in ((1, (0, 1024)), (1, (-1, 0)), (1024, (0, 1)), (-1, (0, 1)))
        for frame in _frames_around(_source_vertex_wire(source, edge_sources)).values()
    ]


def _negative_round_frames():
    """A vertex, or one of its edges, naming a round below zero, with the
    true digest: ``%d`` formats it as readily as any other."""
    block = (Transaction(7, 1, 0.5, 1),)
    frames = []
    for vertex_id, edges in (
        (VertexId(2, 1), frozenset({VertexId(-1, 0), VertexId(1, 2)})),
        (VertexId(-2, 1), frozenset({VertexId(-3, 0), VertexId(-3, 2)})),
    ):
        digest = vertex_digest(vertex_id.round, vertex_id.source, sorted(edges), len(block))
        wire = b"O\x03" + b"".join(encode(field) for field in (vertex_id, edges, block, digest, 3.5))
        frames.extend(_frames_around(wire).values())
    return frames


HOSTILE_FAMILIES = {
    "duplicated-edge": _duplicated_edge_frames,
    "forged-digest": _forged_digest_frames,
    "out-of-range-source": _out_of_range_source_frames,
    "negative-round": _negative_round_frames,
    "unsorted-edges": _unsorted_edge_frames,
    "trailing-byte": _trailing_byte_frames,
    "swapped-tag": _swapped_tag_frames,
}


@pytest.mark.parametrize("family", sorted(HOSTILE_FAMILIES))
def test_hand_built_hostile_frames_agree(family):
    frames = HOSTILE_FAMILIES[family]()
    assert frames
    for frame in frames:
        assert_same_verdict(frame)


def test_forged_digest_is_refused_in_a_proposal_and_in_a_certificate_batch():
    """Every decoded vertex has had its digest recomputed, whichever
    decoder walked the frame: the text is ``_build_vertex``'s."""
    _vertex_frame, propose, _certificate, batch = _forged_digest_frames()
    for frame in (propose, batch):
        with pytest.raises(CodecError, match="vertex 2/1 digest mismatch: carried digest"):
            decode(frame)


def test_an_edge_source_of_two_to_the_28_is_refused_before_anything_shifts_by_it():
    """``Vertex`` builds ``1 << source`` for every edge: a 244-byte proposal
    naming edge source 2**28 would allocate ~72 MB (2**33: ~1 GiB an edge).
    Both decoders refuse it while the peak stays under a megabyte."""
    digest = b"\x07" * 32
    wire = b"O\x0a" + encode(3) + encode(2) + encode(digest) + _source_vertex_wire(1, (0, 2**28))
    assert len(wire) == 244
    for decoder in (decode, reference_codec.decode):
        tracemalloc.start()
        try:
            outcome = verdict(decoder, wire)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{decoder.__module__}: {peak} bytes at peak"
        assert outcome == (
            "raised", CodecError, "vertex names a source outside the validator ids [0, 1024)"
        )


def test_duplicated_edge_is_refused_with_the_set_error():
    for frame in _duplicated_edge_frames():
        with pytest.raises(CodecError, match="duplicate items in encoded set"):
            decode(frame)


# -- the suite notices what it is there to notice ----------------------------------------------------


def test_canonical_hot_frames_never_reach_the_generic_decoder(monkeypatch):
    """The layouts are taken, not silently fallen back from: with the
    generic decoder disabled, every canonical hot frame still decodes."""

    def unreachable(data, offset):
        raise AssertionError("a canonical hot frame fell back to the generic decoder")

    monkeypatch.setattr(codec, "_decode_at", unreachable)
    for name, frame in _frames_around(_vertex_wire(_vertex())).items():
        if name != "vertex":
            assert encode(decode(frame)) == frame
    wide = CertificateMessage(900, 4, b"\x07" * 32, _vertex(range(100), ()), tuple(range(140)))
    assert decode(encode(wide)) == wide
    assert decode(encode(AckMessage(3, 2, b"\x07" * 32, 1))) == AckMessage(3, 2, b"\x07" * 32, 1)


# One production check each, removed from the *source* of the codec: the
# differential must disagree with the oracle somewhere in the family of
# hostile frames that check exists for.
SOURCE_MUTANTS = {
    "skipped-tag-comparison": (
        "if fields[0::2] != literals:",
        "if False:",
        "swapped-tag",
    ),
    "skipped-set-size-check": (
        "if len(edges) != edge_count:",
        "if False:",
        "duplicated-edge",
    ),
    "skipped-digest-recomputation": (
        "vertex = _build_vertex((vertex_id, edges, block, fields[-3], fields[-1]))",
        "vertex = Vertex(vertex_id, edges, block, fields[-3], fields[-1])",
        "forged-digest",
    ),
    "skipped-source-bound": (
        "if type(source) is not int or not 0 <= source < _MAX_SOURCES:",
        "if False:",
        "out-of-range-source",
    ),
    "skipped-round-bound": (
        "if type(round_number) is not int or round_number < 0:",
        "if False:",
        "negative-round",
    ),
    "unchecked-trailing-byte": (
        "if offset == len(body):\n                if shared:",
        "if True:\n                if shared:",
        "trailing-byte",
    ),
}


@pytest.mark.parametrize("mutant", sorted(SOURCE_MUTANTS))
def test_differential_kills_the_source_mutant(mutant):
    original, replacement, family = SOURCE_MUTANTS[mutant]
    mutant_decode = load_mutant(codec, [(original, replacement)]).decode

    def by_name(error):
        """The mutant module defines its own CodecError: compare classes by name."""
        return type(error).__name__

    frames = HOSTILE_FAMILIES[family]()
    killed = [
        frame
        for frame in frames
        if verdict(mutant_decode, frame, by_name) != verdict(reference_codec.decode, frame, by_name)
    ]
    assert killed, f"{mutant} survives the {family} frames"
    # ... and the unmutated source, loaded the same way, survives them all.
    intact = load_mutant(codec, []).decode
    for frame in frames:
        assert verdict(intact, frame, by_name) == verdict(reference_codec.decode, frame, by_name)


# -- the oracle stays an oracle ------------------------------------------------------------------

ALLOWED_MODULES = {
    "__future__",
    "struct",
    "typing",
    "repro.dag.vertex",
    "repro.netexec.codec",
    "repro.node.messages",
    "repro.rbc.messages",
    "repro.schedule.base",
    "repro.types",
    "repro.workload.transactions",
}
ALLOWED_FROM_CODEC = {"CodecError", "Hello", "_build_fetch_request", "_build_vertex"}


def test_reference_codec_imports_stay_inside_the_allowlist():
    tree = ast.parse(Path(reference_codec.__file__).read_text())
    modules, from_codec = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "the oracle must not use relative imports"
            modules.add(node.module)
            if node.module == "repro.netexec.codec":
                from_codec.update(alias.name for alias in node.names)
    assert modules <= ALLOWED_MODULES, sorted(modules - ALLOWED_MODULES)
    assert from_codec <= ALLOWED_FROM_CODEC, sorted(from_codec - ALLOWED_FROM_CODEC)


def test_reference_codec_knows_every_registered_type():
    assert {code: entry[0] for code, entry in reference_codec._TYPES.items()} == {
        spec.code: spec.cls for spec in codec._SPECS
    }
    assert {code: entry[1] for code, entry in reference_codec._TYPES.items()} == {
        spec.code: len(spec.fields) for spec in codec._SPECS
    }
