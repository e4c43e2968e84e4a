"""AsyncioTransport over real Unix-domain sockets, in-process.

Each test builds a tiny transport (2-3 endpoints), runs it inside
``asyncio.run`` (the suite has no async test plugin, by design — the
transport must be drivable from plain synchronous code the same way the
net runner drives it), and asserts the wire-level contract:

* frames delivered end to end after the Hello handshake,
* garbage on the wire closes that connection with a logged reason —
  the transport neither hangs nor crashes,
* a link whose peer does not read stops writing, holds at most
  ``link_capacity`` frames, sheds and counts the rest, and stays FIFO;
  every frame it accepted is written or counted,
* frames survive any segmentation; hostile bytes, early EOF and
  out-of-bounds headers close the connection with the reason logged,
* a connect that cannot succeed fails *by the deadline* with an
  ``OSError`` carrying errno and the peer's address,
* crash semantics: a crashed sender's frames are refused at the
  source, inbound frames to a crashed endpoint count as dropped,
* the transport decodes each vertex once: a certificate whose proposal
  was dropped (``drop_filter``) on its way to one receiver returns the
  vertex another receiver's proposal decoded to, a forged vertex its own
  sender encoded is still refused by every receiver, and a stream of
  large vertices leaves the memo within its byte bound.
"""

from __future__ import annotations

import asyncio
import collections
import struct
import tempfile
import tracemalloc

import pytest

import repro.netexec.codec as codec
from repro.committee import Committee
from repro.crypto.hashing import vertex_digest
from repro.dag.vertex import Vertex
from repro.errors import NetworkError
from repro.netexec.clock import MonotonicScheduler
from repro.netexec.codec import MAX_FRAME_BYTES, Hello, encode_frame
from repro.netexec.transport import AsyncioTransport, PeerLink
from repro.network.transport import NetworkStats
from repro.rbc.certified import CertifiedBroadcast
from repro.rbc.messages import (
    BroadcastMessage,
    CertificateBatch,
    CertificateMessage,
    ProposeMessage,
)
from repro.types import VertexId
from repro.workload.transactions import Transaction


def run(coroutine):
    return asyncio.run(coroutine)


async def _wait_until(predicate, timeout=5.0, interval=0.01):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() >= deadline:
            raise AssertionError("condition not reached within the timeout")
        await asyncio.sleep(interval)


class _Harness:
    """A started transport with recording handlers, one per endpoint."""

    def __init__(self, transport):
        self.transport = transport
        self.received = {}

    @classmethod
    async def start(cls, socket_dir, size=2, family="uds", **kwargs):
        loop = asyncio.get_running_loop()
        scheduler = MonotonicScheduler(loop, seed=1)
        transport = AsyncioTransport(
            scheduler, socket_dir=socket_dir, family=family, **kwargs
        )
        harness = cls(transport)
        for node_id in range(size):
            harness.received[node_id] = []

            def handler(sender, message, _inbox=harness.received[node_id]):
                _inbox.append((sender, message))

            transport.register(node_id, region="r0", handler=handler)
        await transport.start()
        return harness


FAMILIES = pytest.mark.parametrize("family", ["uds", "tcp"])


async def _raw_client(transport, node_id):
    """A plain stream connection to ``node_id``'s listener, as a peer would open."""
    address = transport._endpoints[node_id].address
    if transport.family == "uds":
        return await asyncio.open_unix_connection(address)
    host, port = address
    return await asyncio.open_connection(host, port)


def _ready(origin, round_number=1):
    return BroadcastMessage(origin=origin, round=round_number, digest=b"\x07" * 32)


class TestDelivery:
    def test_send_and_broadcast_deliver_over_uds(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=3)
                transport = harness.transport
                transport.send(0, 1, _ready(0))
                transport.broadcast(2, _ready(2), include_self=True)
                await _wait_until(
                    lambda: transport.stats.messages_delivered >= 4
                )
                await transport.shutdown()
                return harness

        harness = run(scenario())
        assert (0, _ready(0)) in harness.received[1]
        # The broadcast reached every endpoint, including the sender
        # itself (self-delivery goes through the codec too).
        for node_id in range(3):
            assert (2, _ready(2)) in harness.received[node_id]
        assert harness.transport.handler_errors == []

    def test_tcp_family_works_identically(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family="tcp")
                harness.transport.send(1, 0, _ready(1))
                await _wait_until(
                    lambda: harness.transport.stats.messages_delivered >= 1
                )
                await harness.transport.shutdown()
                return harness

        harness = run(scenario())
        assert harness.received[0] == [(1, _ready(1))]

    def test_unknown_family_rejected(self):
        scheduler = object()
        with pytest.raises(NetworkError, match="unknown transport family"):
            AsyncioTransport(scheduler, socket_dir="/tmp", family="carrier-pigeon")


class TestHostilePeers:
    @FAMILIES
    def test_garbage_after_hello_closes_connection_with_reason(self, family):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                transport = harness.transport
                reader, writer = await _raw_client(transport, 0)
                writer.write(encode_frame(Hello(1)))
                # A framed body whose first tag byte is garbage.
                writer.write(b"\x00\x00\x00\x05GARBA")
                await writer.drain()
                # The server must close the connection (EOF at our end),
                # not hang waiting for more bytes.
                leftovers = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                await writer.wait_closed()
                await transport.shutdown()
                return harness, leftovers

        harness, leftovers = run(scenario())
        assert leftovers == b""
        assert any(
            "validator 0: closing connection from validator 1" in event
            for event in harness.transport.events
        ), harness.transport.events
        assert harness.transport.handler_errors == []

    @FAMILIES
    def test_zero_length_frame_instead_of_hello_closes_connection(self, family):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                transport = harness.transport
                reader, writer = await _raw_client(transport, 1)
                writer.write(b"\x00\x00\x00\x00")
                await writer.drain()
                leftovers = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                await writer.wait_closed()
                await transport.shutdown()
                return harness, leftovers

        harness, leftovers = run(scenario())
        assert leftovers == b""
        assert any(
            "validator 1: closing connection from unidentified peer" in event
            for event in harness.transport.events
        ), harness.transport.events

    @FAMILIES
    def test_non_hello_first_frame_closes_connection(self, family):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                transport = harness.transport
                reader, writer = await _raw_client(transport, 0)
                writer.write(encode_frame(_ready(1)))
                await writer.drain()
                await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                await writer.wait_closed()
                await transport.shutdown()
                return harness

        harness = run(scenario())
        assert any(
            "expected a hello frame" in event for event in harness.transport.events
        ), harness.transport.events
        # The impostor frame was never dispatched to a handler.
        assert harness.received[0] == []

    @pytest.mark.parametrize("claimed", [99, 0, -1], ids=["unregistered", "own-id", "negative"])
    @FAMILIES
    def test_hello_naming_no_other_registered_validator_closes_connection(self, claimed, family):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                transport = harness.transport
                reader, writer = await _raw_client(transport, 0)
                writer.write(encode_frame(Hello(claimed)) + encode_frame(_ready(1)))
                await writer.drain()
                leftovers = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                await writer.wait_closed()
                await transport.shutdown()
                return harness, leftovers

        harness, leftovers = run(scenario())
        assert leftovers == b""
        assert any(
            "validator 0: closing connection from unidentified peer: "
            f"hello names {claimed}, not another registered validator" in event
            for event in harness.transport.events
        ), harness.transport.events
        # The frame behind the refused hello was never dispatched.
        assert harness.received[0] == []

    def test_ids_outside_the_committee_are_refused_without_allocating(self):
        """Well-formed frames whose ids would be gigabyte shifts (``1 << 2**33``):
        a certificate origin, a signer, and a proposal from a peer whose
        hello names such an id.  Each refusal is measured where it happens:
        the first two in the protocol, the third at the hello."""
        huge = 2**33
        committee = Committee.build(4)
        delivered, peaks = [], []

        def digest(origin, round_number, payload):
            return CertifiedBroadcast._broadcast_digest(origin, round_number, payload)

        frames = [
            (3, CertificateMessage(
                origin=huge, round=4, digest=digest(huge, 4, "forged"), payload="forged", signers=(0, 1, 2)
            )),
            (3, CertificateMessage(
                origin=2, round=4, digest=digest(2, 4, "forged"), payload="forged", signers=(0, 1, huge)
            )),
            (huge, ProposeMessage(origin=huge, round=1, digest=digest(huge, 1, "outsider"), payload="outsider")),
        ]

        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                transport = AsyncioTransport(
                    MonotonicScheduler(asyncio.get_running_loop(), seed=1), socket_dir=socket_dir
                )
                protocol = CertifiedBroadcast(1, committee, transport, delivered.append)

                def handler(sender, message):
                    tracemalloc.start()
                    try:
                        protocol.handle_message(sender, message)
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()

                for node_id in range(4):
                    transport.register(
                        node_id, region="r0", handler=handler if node_id == 1 else lambda sender, message: None
                    )
                await transport.start()
                for peer, message in frames:
                    _, writer = await asyncio.open_unix_connection(transport._endpoints[1].address)
                    writer.write(encode_frame(Hello(peer)) + encode_frame(message))
                    await writer.drain()
                    writer.close()
                    await writer.wait_closed()
                await _wait_until(
                    lambda: len(peaks) == 2 and any("hello names" in event for event in transport.events)
                )
                await transport.shutdown()
                return transport, protocol

        transport, protocol = run(scenario())
        assert transport.handler_errors == []
        assert max(peaks) < 1 << 20
        assert delivered == [] and protocol._delivered == {} and protocol._acked == {}
        assert transport.stats.messages_sent == 0


def _bulky(origin, index):
    """A ~4 KiB frame numbered ``index``: a few dozen fill any socket buffer."""
    return BroadcastMessage(origin=origin, round=index, digest=bytes(4096))


class TestBackpressure:
    def test_full_send_queue_sheds_and_counts(self):
        async def scenario():
            events = []
            stats = NetworkStats()
            # The link never comes up, so nothing leaves its backlog.
            link = PeerLink(
                owner=0, peer=1, capacity=2, stats=stats, on_event=events.append
            )
            frame = encode_frame(_ready(0))
            accepted = [link.send_frame(frame) for _ in range(3)]
            held = len(link.backlog)
            await link.close()
            return accepted, held, link, stats, events

        accepted, held, link, stats, events = run(scenario())
        assert accepted == [True, True, False]
        assert held == 2
        assert any("send queue full (2 frames), shedding" in event for event in events)
        # One shed at the full queue; closing a link that never connected
        # counts the two it still held: accepted frames are written or counted.
        assert link.frames_sent == 0
        assert link.frames_dropped == 3 == stats.messages_dropped

    def test_transport_counts_shed_frames_as_dropped(self):
        """A peer that does not read: writes stop at the high-water mark,
        the link holds ``link_capacity`` frames and sheds the rest; once
        the peer reads, what was accepted arrives in send order."""
        capacity, total = 20, 400

        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, link_capacity=capacity)
                transport = harness.transport
                link = transport._links[0][1]
                # Not yielding to the loop is the peer not reading.
                for index in range(total):
                    transport.send(0, 1, _bulky(0, index))
                stalled = (link.frames_sent, len(link.backlog), link.frames_dropped)
                assert harness.received[1] == []
                dropped = transport.stats.messages_dropped
                await _wait_until(
                    lambda: len(harness.received[1]) >= total - dropped, timeout=20.0
                )
                await transport.shutdown()
                return harness, link, stalled, dropped

        harness, link, (written, held, shed), dropped = run(scenario())
        # Direct writes stopped short of everything, the backlog filled to
        # its bound and no further, the remainder was shed and counted.
        assert 0 < written < total - capacity
        assert held == capacity
        assert shed == dropped == total - written - capacity > 0
        assert sum("send queue full" in event for event in harness.transport.events) == shed
        # FIFO across the direct-write / backlog boundary: exactly the
        # accepted frames, in send order, nothing from behind the shed.
        assert _rounds(harness.received[1]) == list(range(written + capacity))
        assert link.frames_sent == written + capacity
        assert harness.transport.stats.messages_delivered == written + capacity

    def test_close_drains_a_non_empty_backlog_first(self):
        total = 200

        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2)
                transport = harness.transport
                link = transport._links[0][1]
                for index in range(total):
                    transport.send(0, 1, _bulky(0, index))
                held = len(link.backlog)
                closed = link.close()
                refused = link.send_frame(encode_frame(_ready(0)))
                await asyncio.wait_for(closed, timeout=20.0)
                await _wait_until(lambda: len(harness.received[1]) >= total, timeout=20.0)
                await transport.shutdown()
                return harness, link, held, refused

        harness, link, held, refused = run(scenario())
        assert held > 0
        assert refused is False
        assert _rounds(harness.received[1]) == list(range(total))
        assert link.frames_sent == total
        assert link.frames_dropped == 1 == harness.transport.stats.messages_dropped

    def test_backlog_that_outlives_its_connection_is_counted(self):
        """The peer goes away while frames wait: written or counted, never neither."""
        total = 200

        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                accepted = []
                server = await asyncio.start_unix_server(
                    lambda reader, writer: accepted.append(writer),
                    path=f"{socket_dir}/peer.sock",
                )
                events = []
                stats = NetworkStats()
                link = PeerLink(
                    owner=0, peer=1, capacity=total, stats=stats, on_event=events.append
                )
                loop = asyncio.get_running_loop()
                await loop.create_unix_connection(lambda: link, f"{socket_dir}/peer.sock")
                results = [
                    link.send_frame(encode_frame(_bulky(0, index))) for index in range(total)
                ]
                await _wait_until(lambda: accepted)
                held = len(link.backlog)
                accepted[0].transport.abort()
                await asyncio.wait_for(link.closed, timeout=5.0)
                server.close()
                await server.wait_closed()
                return link, stats, events, results, held

        link, stats, events, results, held = run(scenario())
        assert all(results) and held > 0
        assert link.frames_sent + link.frames_dropped == total
        assert link.frames_dropped == held == stats.messages_dropped
        assert len(events) == 1 and "link 0->1 failed" in events[0]
        assert link.send_frame(b"late") is False


class TestConnectDeadline:
    def test_terminal_failure_carries_errno_and_address(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            scheduler = MonotonicScheduler(loop, seed=1)
            with tempfile.TemporaryDirectory() as socket_dir:
                transport = AsyncioTransport(
                    scheduler,
                    socket_dir=socket_dir,
                    family="uds",
                    connect_deadline=0.3,
                )
                transport.register(0, region="r0", handler=lambda s, m: None)
                # Point at a socket nobody listens on and connect without
                # ever starting the server.
                endpoint = transport._endpoints[0]
                endpoint.address = f"{socket_dir}/validator-0.sock"
                try:
                    await transport._connect_with_deadline(0)
                except OSError as error:
                    return error
                raise AssertionError("connect unexpectedly succeeded")

        error = run(scenario())
        assert error.errno is not None
        assert "cannot connect to validator 0 within 0.3s" in str(error)
        assert error.filename is not None
        assert "validator-0.sock" in str(error.filename)


class TestCrashSemantics:
    def test_crashed_sender_refused_and_crashed_recipient_drops(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=3)
                transport = harness.transport
                transport.set_crashed(2)
                assert transport.is_crashed(2)
                # Outbound from the crashed validator: refused at source.
                transport.send(2, 0, _ready(2))
                # Inbound to the crashed validator: delivered over the
                # wire, counted as dropped at dispatch.
                before = transport.stats.messages_dropped
                transport.send(0, 2, _ready(0))
                await _wait_until(
                    lambda: transport.stats.messages_dropped >= before + 1
                )
                await transport.shutdown()
                return harness

        harness = run(scenario())
        assert harness.received[0] == []
        assert harness.received[2] == []

    def test_a_crashed_senders_broadcast_counts_each_recipient_as_sent_and_dropped(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=3)
                transport = harness.transport
                transport.set_crashed(1)
                transport.broadcast(1, _ready(1))
                transport.broadcast(1, _ready(1, round_number=2), include_self=False)
                counts = (transport.stats.messages_sent, transport.stats.messages_dropped)
                await transport.shutdown()
                return harness, counts

        harness, counts = run(scenario())
        assert counts == (3 + 2, 3 + 2)
        assert all(inbox == [] for inbox in harness.received.values())

    def test_a_routed_class_is_dispatched_by_class_and_dropped_while_crashed(self):
        routed = []

        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=3)
                transport = harness.transport
                for node_id in (1, 2):
                    transport.route(node_id, {BroadcastMessage: lambda sender, message: routed.append(message)})
                transport.set_crashed(2)
                transport.send(0, 1, _ready(0))
                transport.send(0, 2, _ready(0, round_number=2))
                await _wait_until(lambda: transport.stats.messages_delivered + transport.stats.messages_dropped >= 2)
                await transport.shutdown()
                return harness

        harness = run(scenario())
        # The routed class skips the registered handler; the crashed
        # endpoint's copy is counted as dropped and reaches no handler.
        assert routed == [_ready(0)]
        assert harness.received[1] == [] and harness.received[2] == []
        assert (harness.transport.stats.messages_delivered, harness.transport.stats.messages_dropped) == (1, 1)


# -- the frame path's contract: segmentation, hostile bytes, EOF, size bounds -----

async def _hang_up(reader, writer, timeout=5.0):
    """Half-close, then wait for the server's own close; returns what it sent."""
    if writer.can_write_eof():
        writer.write_eof()
    leftovers = await asyncio.wait_for(reader.read(), timeout=timeout)
    writer.close()
    await writer.wait_closed()
    return leftovers


def _rounds(inbox):
    return [message.round for _sender, message in inbox]


class TestFramePath:
    @FAMILIES
    def test_frame_written_one_byte_at_a_time_is_delivered_once(self, family):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                reader, writer = await _raw_client(harness.transport, 0)
                for byte in encode_frame(Hello(1)) + encode_frame(_ready(1, 7)):
                    writer.write(bytes((byte,)))
                    await asyncio.sleep(0)
                await _wait_until(lambda: harness.received[0])
                await _hang_up(reader, writer)
                await harness.transport.shutdown()
                return harness

        harness = run(scenario())
        assert harness.received[0] == [(1, _ready(1, 7))]
        assert harness.transport.stats.messages_delivered == 1
        assert harness.transport.events == []

    @FAMILIES
    def test_many_frames_in_one_segment_are_delivered_in_order(self, family):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                reader, writer = await _raw_client(harness.transport, 0)
                writer.write(
                    encode_frame(Hello(1))
                    + b"".join(encode_frame(_ready(1, index)) for index in range(500))
                )
                await _wait_until(lambda: len(harness.received[0]) >= 500)
                await _hang_up(reader, writer)
                await harness.transport.shutdown()
                return harness

        harness = run(scenario())
        assert _rounds(harness.received[0]) == list(range(500))
        assert harness.transport.events == []

    @FAMILIES
    def test_valid_frames_before_garbage_in_one_segment_are_dispatched(self, family):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                reader, writer = await _raw_client(harness.transport, 0)
                writer.write(
                    encode_frame(Hello(1))
                    + b"".join(encode_frame(_ready(1, index)) for index in range(3))
                    + b"\x00\x00\x00\x05GARBA"
                    + encode_frame(_ready(1, 99))
                )
                leftovers = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                await writer.wait_closed()
                await harness.transport.shutdown()
                return harness, leftovers

        harness, leftovers = run(scenario())
        assert leftovers == b""
        # Everything ahead of the garbage was delivered, nothing behind it.
        assert _rounds(harness.received[0]) == [0, 1, 2]
        assert len(harness.transport.events) == 1
        assert (
            "validator 0: closing connection from validator 1: unknown value tag"
            in harness.transport.events[0]
        )

    @FAMILIES
    @pytest.mark.parametrize(
        "tail, reason",
        [
            (b"\x00\x00", "connection closed mid-header (2/4 bytes)"),
            (b"\x00\x00\x00\x42" + b"O" * 10, "connection closed mid-frame (10/66 bytes)"),
        ],
    )
    def test_eof_inside_a_frame_is_logged_with_have_and_need(self, family, tail, reason):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                reader, writer = await _raw_client(harness.transport, 0)
                writer.write(encode_frame(Hello(1)) + encode_frame(_ready(1, 5)) + tail)
                leftovers = await _hang_up(reader, writer)
                await harness.transport.shutdown()
                return harness, leftovers

        harness, leftovers = run(scenario())
        assert leftovers == b""
        assert _rounds(harness.received[0]) == [5]
        assert harness.transport.events == [
            f"validator 0: closing connection from validator 1: {reason}"
        ]

    @FAMILIES
    def test_clean_eof_between_frames_is_not_an_event(self, family):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                reader, writer = await _raw_client(harness.transport, 0)
                writer.write(encode_frame(Hello(1)) + encode_frame(_ready(1, 5)))
                await _hang_up(reader, writer)
                await harness.transport.shutdown()
                return harness

        harness = run(scenario())
        assert _rounds(harness.received[0]) == [5]
        assert harness.transport.events == []

    @FAMILIES
    def test_oversized_header_closes_without_waiting_for_a_body(self, family):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                reader, writer = await _raw_client(harness.transport, 0)
                writer.write(
                    encode_frame(Hello(1)) + struct.pack(">I", MAX_FRAME_BYTES + 1)
                )
                # No body follows and the client does not hang up: the
                # header alone must get the connection closed.
                leftovers = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                await writer.wait_closed()
                await harness.transport.shutdown()
                return harness, leftovers

        harness, leftovers = run(scenario())
        assert leftovers == b""
        assert harness.transport.events == [
            "validator 0: closing connection from validator 1: "
            f"frame length {MAX_FRAME_BYTES + 1} outside (0, {MAX_FRAME_BYTES}]"
        ]

    @FAMILIES
    def test_large_frame_in_many_reads_is_intact_and_linear(self, family):
        """A legal multi-megabyte frame trickling in 256 bytes per read.

        Delivered intact, and four times the bytes may not cost anywhere
        near sixteen times the seconds: a receiver that re-copies what
        it has buffered on every read (``bytes + bytes``) is quadratic.
        """
        chunk = 256

        async def deliver(harness, writer, size):
            message = BroadcastMessage(origin=1, round=size, digest=bytes(size))
            frame = encode_frame(message)
            before = len(harness.received[0])
            loop = asyncio.get_running_loop()
            started = loop.time()
            for offset in range(0, len(frame), chunk):
                writer.write(frame[offset:offset + chunk])
                await asyncio.sleep(0)
            await _wait_until(
                lambda: len(harness.received[0]) > before, timeout=30.0, interval=0.001
            )
            assert harness.received[0][-1] == (1, message)
            return loop.time() - started

        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, family=family)
                reader, writer = await _raw_client(harness.transport, 0)
                writer.write(encode_frame(Hello(1)))
                small = min([await deliver(harness, writer, 512 * 1024) for _ in range(2)])
                large = min([await deliver(harness, writer, 2048 * 1024) for _ in range(2)])
                await _hang_up(reader, writer)
                await harness.transport.shutdown()
                return harness, small, large

        harness, small, large = run(scenario())
        assert len(harness.received[0]) == 4
        assert harness.transport.events == []
        assert large < 8 * small, (small, large)


def _vertex_of(round_number, kind_bytes=8):
    """A vertex of validator 0 whose one transaction's kind is ``kind_bytes`` long."""
    edges = frozenset(VertexId(round_number - 1, source) for source in (0, 1, 2))
    block = (Transaction(round_number, 1, 0.5, 1, kind="k" * kind_bytes),)
    return Vertex(
        id=VertexId(round_number, 0),
        edges=edges,
        block=block,
        digest=vertex_digest(round_number, 0, sorted(edges), len(block)),
        created_at=0.5,
    )


class TestVertexMemo:
    def test_a_certificate_whose_proposal_was_dropped_is_answered_by_the_memo(self, monkeypatch):
        """Validator 0's proposal is dropped on its way to 1 only, then its
        certificate reaches everyone: 0's own copy builds the vertex, and 2's
        proposal and every certificate get that vertex from the memo."""
        built = []
        build_vertex = codec._build_vertex
        monkeypatch.setattr(codec, "_build_vertex", lambda fields: built.append(fields[0]) or build_vertex(fields))
        vertex = _vertex_of(4)
        proposal = ProposeMessage(0, 4, vertex.digest, vertex)
        batch = CertificateBatch(
            0, 4, vertex.digest, (CertificateMessage(0, 4, vertex.digest, vertex, (0, 1, 2)),)
        )

        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=3)
                transport = harness.transport
                transport.drop_filter = lambda sender, recipient, frame: recipient == 1
                transport.broadcast(0, proposal)
                transport.drop_filter = None
                transport.broadcast(0, batch)
                await _wait_until(lambda: transport.stats.messages_delivered >= 5)
                await transport.shutdown()
                return harness

        harness = run(scenario())
        stats = harness.transport.stats
        assert (stats.messages_sent, stats.messages_dropped, stats.loss_drops) == (6, 1, 1)
        assert harness.received[1] == [(0, batch)]
        for node_id in (0, 2):
            assert harness.received[node_id] == [(0, proposal), (0, batch)]
        # One build, for 0's own copy of its proposal: the vertex's bytes are
        # the same in every frame that carries them.
        assert built == [vertex.id]
        decoded = harness.received[0][0][1].payload
        assert decoded == vertex and decoded is not vertex
        certified = [harness.received[node_id][-1][1].certificates[0].payload for node_id in (0, 1, 2)]
        assert all(payload is decoded for payload in [harness.received[2][0][1].payload, *certified])

    def test_a_forged_vertex_is_refused_by_every_receiver(self):
        """The sender's encoding never seeds the decode side: a vertex whose
        carried digest is not its content digest fails the check at its own
        sender and at each peer, and nothing of it is delivered.  The
        sender's own copy is dropped and counted like a peer's frame, not
        raised into the code that sent it."""
        vertex = _vertex_of(4)
        forged = Vertex(
            id=vertex.id, edges=vertex.edges, block=vertex.block,
            digest=bytes((vertex.digest[0] ^ 0x01,)) + vertex.digest[1:], created_at=vertex.created_at,
        )
        proposal = ProposeMessage(0, 4, forged.digest, forged)

        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=3)
                transport = harness.transport
                transport.send(0, 0, proposal)
                assert transport.stats.messages_dropped == 1
                assert transport.events[-1].startswith("validator 0: refusing its own frame: ")
                transport.broadcast(0, proposal, include_self=False)
                await _wait_until(lambda: sum("digest mismatch" in event for event in transport.events) == 3)
                await transport.shutdown()
                return harness

        harness = run(scenario())
        assert harness.received == {0: [], 1: [], 2: []}
        stats = harness.transport.stats
        # The self-delivery, then one frame on each closed connection.
        assert (stats.messages_sent, stats.messages_delivered, stats.messages_dropped) == (3, 0, 3)
        for receiver in (1, 2):
            assert any(
                f"validator {receiver}: closing connection from validator 0" in event
                for event in harness.transport.events
            ), harness.transport.events
        assert {type(key) for key in harness.transport.memo.entries} == {int}
        assert harness.transport.memo.frames == {}

    def test_a_stream_of_large_vertices_leaves_the_memo_within_its_bytes(self):
        """1,000 distinct ~60 KiB vertices from 0 to 1, 2 and itself: the
        memo keeps the newest few frames, not one per vertex (~60 MB); over
        the byte cap the vertex encodings were forgotten first."""
        count, kind_bytes = 1000, 60 * 1024

        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                transport = AsyncioTransport(
                    MonotonicScheduler(asyncio.get_running_loop(), seed=1), socket_dir=socket_dir
                )
                delivered = collections.Counter()
                for node_id in range(3):
                    transport.register(
                        node_id, region="r0", handler=lambda sender, message: delivered.update(("frames",))
                    )
                await transport.start()
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    for index in range(1, count + 1):
                        vertex = _vertex_of(index, kind_bytes)
                        transport.broadcast(0, ProposeMessage(0, index, vertex.digest, vertex))
                        while delivered["frames"] < 3 * index:
                            await asyncio.sleep(0)
                    del vertex
                    held = tracemalloc.get_traced_memory()[0] - before
                finally:
                    tracemalloc.stop()
                memo = transport.memo
                await transport.shutdown()
                return held, memo

        held, memo = run(scenario())
        assert 0 < memo.held_bytes <= codec._MEMO_BYTES
        held_entries = [*memo.entries.values(), *memo.frames.values()]
        assert memo.held_bytes == sum(len(encoded) for _, encoded in held_entries)
        # Oldest forgotten first: what is left is the newest proposals, and
        # no vertex encoding, which each of them answers for.
        rounds = [message.round for message, _ in memo.frames.values()]
        assert len(rounds) > 1 and memo.entries == {}
        assert rounds == list(range(count - len(rounds) + 1, count + 1)), rounds
        assert held < 1 << 20, f"{held} bytes still held after {count} vertices"
