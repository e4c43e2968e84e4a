"""A socket run decodes each broadcast frame once, however many validators receive it.

The run is ``sockets-c7``'s smoke shape (committee 4, 8 lockstep rounds,
no client load, Unix domain sockets, no loss).  Every validator receives
every proposal and every certificate batch, itself included, and the
transport's ``VertexMemo`` hands each of them the message the first
receiver's decode accepted from the same bytes:

* ``codec._build_vertex`` (the decode that recomputes a vertex's digest)
  runs once per distinct ``(id, digest)``: 32 for 32 vertices, against
  128 when each receiving link end decoded its own copy;
* the layout decoders run once per distinct frame: 32 proposals and 32
  certificate batches, against 128 each when every receiver decoded its
  copy; the 128 acks go to one validator each and are decoded as before.

Sharing one message among receivers is safe only while no handler edits
a message in place.  The last test keeps every shared message beside the
bytes it was decoded from and checks, after the run, that each still
equals what those bytes decode to alone; a planted in-place edit fails
that check.
"""

import collections

import repro.netexec.codec as codec
import repro.netexec.transport as transport_module
from repro.netexec.runner import run_net_experiment
from repro.netexec.transport import AsyncioTransport
from repro.rbc.messages import CertificateBatch, CertificateMessage, ProposeMessage
from repro.sim.experiment import ExperimentConfig

SHARED = (ProposeMessage, CertificateMessage, CertificateBatch)


def smoke_run():
    config = ExperimentConfig(committee_size=4, input_load_tps=0.0, duration=8.0, warmup=0.0, seed=2)
    result = run_net_experiment(config, family="uds")
    assert result.report.commits > 0
    return result


def test_each_vertex_is_built_once_per_run(monkeypatch):
    built = collections.Counter()
    build_vertex = codec._build_vertex

    def counted(fields):
        vertex = build_vertex(fields)
        built[vertex.id, vertex.digest] += 1
        return vertex

    monkeypatch.setattr(codec, "_build_vertex", counted)
    smoke_run()
    assert len(built) == 32, len(built)
    assert set(built.values()) == {1}, built.most_common(3)


def test_each_broadcast_frame_is_decoded_once_per_run(monkeypatch):
    """Layout decodes by class, counted where each frame's prefix is unpacked."""
    names = {id(codec._PROPOSE): "propose", id(codec._BATCH): "batch", id(codec._ACK): "ack"}
    decoded = collections.Counter()
    fields_at = codec._fields_at

    def counted(layout, data, offset):
        if id(layout) in names:
            decoded[names[id(layout)]] += 1
        return fields_at(layout, data, offset)

    monkeypatch.setattr(codec, "_fields_at", counted)
    smoke_run()
    assert decoded == {"propose": 32, "batch": 32, "ack": 128}, decoded


class _Delivered:
    """Every shared-class message a decode returned, beside its frame body."""

    def __init__(self, monkeypatch):
        self.pairs = []
        self.decode = decode = codec.decode

        def kept(body, memo=None):
            message = decode(body, memo)
            if type(message) in SHARED:
                self.pairs.append((body, message))
            return message

        monkeypatch.setattr(codec, "decode", kept)
        monkeypatch.setattr(transport_module, "decode", kept)

    def edited(self):
        """The pairs whose message no longer is what its bytes decode to alone."""
        return [
            (body, message)
            for body, message in self.pairs
            if self.decode(body) != message or codec.encode(message) != body
        ]


def test_shared_messages_are_never_edited_in_place(monkeypatch):
    delivered = _Delivered(monkeypatch)
    smoke_run()
    # 64 distinct frames, each delivered to all four validators as one object.
    assert len(delivered.pairs) == 256
    assert len({id(message) for _, message in delivered.pairs}) == 64
    assert delivered.edited() == []


def test_the_sharing_check_sees_a_planted_in_place_edit(monkeypatch):
    """Validator 0 overwrites the emitter digest of each batch it handles, a
    field no handler reads: the run is unchanged, the check is not."""
    delivered = _Delivered(monkeypatch)
    dispatch = AsyncioTransport._dispatch

    def editing(self, sender, endpoint, message):
        dispatch(self, sender, endpoint, message)
        if endpoint.node_id == 0 and type(message) is CertificateBatch:
            message.digest = bytes(32)

    monkeypatch.setattr(AsyncioTransport, "_dispatch", editing)
    smoke_run()
    edited = delivered.edited()
    assert len(edited) == 4 * 32
    assert all(type(message) is CertificateBatch for _, message in edited)
