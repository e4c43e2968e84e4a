"""AsyncioTransport over real Unix-domain sockets, in-process.

Each test builds a tiny transport (2-3 endpoints), runs it inside
``asyncio.run`` (the suite has no async test plugin, by design — the
transport must be drivable from plain synchronous code the same way the
net runner drives it), and asserts the wire-level contract:

* frames delivered end to end after the Hello handshake,
* garbage on the wire closes that connection with a logged reason —
  the transport neither hangs nor crashes,
* a full bounded send queue sheds frames and counts them,
* a connect that cannot succeed fails *by the deadline* with an
  ``OSError`` carrying errno and the peer's address,
* crash semantics: a crashed sender's frames are refused at the
  source, inbound frames to a crashed endpoint count as dropped.
"""

from __future__ import annotations

import asyncio
import tempfile

import pytest

from repro.errors import NetworkError
from repro.netexec.clock import MonotonicScheduler
from repro.netexec.codec import Hello, encode_frame
from repro.netexec.transport import AsyncioTransport, PeerLink
from repro.rbc.messages import BroadcastMessage


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
    def test_garbage_after_hello_closes_connection_with_reason(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2)
                transport = harness.transport
                address = transport._endpoints[0].address
                reader, writer = await asyncio.open_unix_connection(address)
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

    def test_zero_length_frame_instead_of_hello_closes_connection(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2)
                transport = harness.transport
                address = transport._endpoints[1].address
                reader, writer = await asyncio.open_unix_connection(address)
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

    def test_non_hello_first_frame_closes_connection(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2)
                transport = harness.transport
                address = transport._endpoints[0].address
                reader, writer = await asyncio.open_unix_connection(address)
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


class TestBackpressure:
    def test_full_send_queue_sheds_and_counts(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            never = loop.create_future()
            events = []

            async def connect():
                await never  # the link never comes up, so nothing drains

            link = PeerLink(
                owner=0, peer=1, connect=connect, capacity=2, on_event=events.append
            )
            link.start(loop)
            frame = encode_frame(_ready(0))
            accepted = [link.send_frame(frame) for _ in range(3)]
            never.cancel()
            link.task.cancel()
            try:
                await link.task
            except asyncio.CancelledError:
                pass
            return accepted, link, events

        accepted, link, events = run(scenario())
        assert accepted == [True, True, False]
        assert link.frames_dropped == 1
        assert any("send queue full" in event for event in events)

    def test_transport_counts_shed_frames_as_dropped(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as socket_dir:
                harness = await _Harness.start(socket_dir, size=2, link_capacity=1)
                transport = harness.transport
                # Stall the writer by swapping in an unconnected queue
                # consumer: easiest deterministic stall is to pause the
                # link task and overfill the queue directly.
                link = transport._links[(0, 1)]
                link.queue.put_nowait(encode_frame(_ready(0)))  # fill capacity 1
                before = transport.stats.messages_dropped
                transport.send(0, 1, _ready(0))
                dropped_grew = transport.stats.messages_dropped >= before
                await transport.shutdown()
                return dropped_grew

        assert run(scenario())


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
