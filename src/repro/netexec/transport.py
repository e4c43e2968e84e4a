"""AsyncioTransport: the `Network` interface over real sockets.

One process, one event loop, one listening socket per validator (Unix
domain sockets by default, local TCP optionally) and one outbound
connection per ordered validator pair.  The transport implements the
exact surface :class:`~repro.node.validator.ValidatorNode` consumes
from :class:`~repro.network.transport.Network` — ``register``/``route``/``send``/
``broadcast``/``set_crashed``/``is_crashed``/``stats``/
``install_observability`` plus the
``.simulator`` timing facade — so the full validator stack runs over
sockets unmodified.

Both ends of a connection are ``asyncio.Protocol`` callbacks: a frame
costs one socket write and one read callback, nothing is awaited per
frame, and a broadcast frame is decoded once for all its receivers.

Mechanics:

* **Framing** — every message crosses the wire as a length-prefixed
  canonical frame (``repro/netexec/codec.py``).  The first frame on a
  connection is a :class:`~repro.netexec.codec.Hello` naming the
  sender, which must be a registered validator other than the
  receiver (self-delivery never crosses a socket).  The receiving end
  appends each read to one growing buffer and the codec's frame
  splitter decodes and dispatches every complete frame inline, checking a header's bounds the moment its four bytes
  are there.  A truncated, oversized, or garbage frame raises at the
  codec boundary and the connection is closed with a logged reason
  (``transport.events``), after everything ahead of it in the same
  read has been dispatched — no hang, no crash; nor does a validator's
  own frame it cannot decode raise into its sender.  One bounded
  :class:`~repro.netexec.codec.VertexMemo` serves every encode and decode:
  a vertex is encoded once by its sender, and a proposal or certificate
  batch decoded, digest check included, once by its first receiver; every
  other receiver gets that message object, as in the simulator, so no
  handler may edit a message in place.  The wire bytes are the same.
* **Backpressure** — a link writes each frame straight to its socket
  transport.  Only while that transport has paused writing (its buffer
  is above the high-water mark: the peer is not reading fast enough),
  or before the connection is up, do frames wait in the link's backlog,
  at most ``link_capacity`` of them, flushed in order before direct
  writes resume — a link is FIFO throughout.  A full backlog sheds the
  frame and counts it (``stats.messages_dropped``); the protocol's
  synchronizer repairs the loss.  Every frame a link accepted is
  delivered or counted: a backlog that outlives its connection counts as
  dropped, and so, once both ends are gone, does every frame written into
  a connection that the receiver rejected or lost before reading it.  The default capacity is far above anything smoke-scale
  traffic reaches, so the bound is an overload valve, not a
  steady-state drop source.
* **Connection retry with deadline** — outbound connects retry with
  exponential backoff until ``connect_deadline``; the terminal failure
  is an :class:`OSError` carrying the peer's errno and address, which
  ``repro.cliutil.run_guarded`` surfaces verbatim.
* **Crash semantics** — ``set_crashed`` mirrors the simulator: frames
  already accepted are in flight and still drain to their destinations
  (drain-then-close), new sends from the crashed validator are refused
  at the source, and inbound traffic to it is counted as dropped.  The
  listening socket closes so no new connections reach a dead validator.
* **Fault hook** — ``drop_filter`` is a synchronous predicate applied
  at the send boundary, the seam where loss/partition fault windows
  plug into the socket backend.

Wall-clock and socket reads are confined to this module, ``clock``, and
``runner``; no module on the commit path imports any of the three.
"""

from __future__ import annotations

import asyncio
import collections
import functools
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import NetworkError
from repro.netexec.clock import MonotonicScheduler
from repro.netexec.codec import (
    CodecError,
    FrameError,
    Hello,
    VertexMemo,
    decode,
    encode_frame,
    split_frames,
)
from repro.network.transport import NetworkStats
from repro.types import Region, ValidatorId

# Frames a link may hold while its socket is not taking them, before the
# transport starts shedding.  Sized as an overload valve: a link whose
# peer keeps reading holds none.
DEFAULT_LINK_CAPACITY = 10_000

DEFAULT_CONNECT_DEADLINE = 5.0

# How long shutdown waits for inbound connections to see their peer's
# close (and so read whatever was still in flight) before aborting them.
_INBOUND_CLOSE_GRACE = 1.0


class PeerLink(asyncio.Protocol):
    """One outbound connection: direct writes, a bounded backlog while paused."""

    def __init__(
        self,
        owner: ValidatorId,
        peer: ValidatorId,
        capacity: int,
        stats: NetworkStats,
        on_event: Callable[[str], None],
    ) -> None:
        self.owner = owner
        self.peer = peer
        self.capacity = capacity
        self._stats = stats
        self._on_event = on_event
        self.backlog: Deque[bytes] = collections.deque()
        self.frames_sent = 0
        self.frames_dropped = 0
        # The accepted connection whose hello named this link.
        self.reader: Optional["_InboundConnection"] = None
        self.closing = False
        # Resolves once the connection is gone (or was never made).
        self.closed: asyncio.Future = asyncio.get_running_loop().create_future()
        self._transport: Optional[asyncio.Transport] = None
        self._paused = False
        # The socket transport's ``write`` while a frame may go straight
        # to it: connection up, not paused, backlog empty, not closing.
        self._write: Optional[Callable[[bytes], None]] = None

    def send_frame(self, frame: bytes) -> bool:
        """Write or hold ``frame`` without blocking; ``False`` means it was shed."""
        write = self._write
        if write is not None:
            write(frame)
            self.frames_sent += 1
            return True
        if self.closing:
            self._shed(1)
            return False
        if len(self.backlog) >= self.capacity:
            self._shed(1)
            self._on_event(
                f"link {self.owner}->{self.peer}: send queue full "
                f"({self.capacity} frames), shedding"
            )
            return False
        self.backlog.append(frame)
        return True

    def _shed(self, frames: int) -> None:
        self.frames_dropped += frames
        self._stats.messages_dropped += frames

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport
        if self.closing:
            transport.close()
            return
        transport.write(encode_frame(Hello(self.owner)))
        self.resume_writing()

    def pause_writing(self) -> None:
        self._paused = True
        self._write = None

    def resume_writing(self) -> None:
        self._paused = False
        backlog = self.backlog
        write = self._transport.write
        # A write that refills the socket buffer calls pause_writing.
        while backlog and not self._paused:
            write(backlog.popleft())
            self.frames_sent += 1
        if self._paused:
            return
        if self.closing:
            self._transport.close()
        else:
            self._write = write

    def connection_lost(self, error: Optional[Exception]) -> None:
        if error is not None:
            self._on_event(f"link {self.owner}->{self.peer} failed: {error}")
        elif not self.closing:
            self._on_event(f"link {self.owner}->{self.peer} failed: closed by the peer")
        self._gone()

    def close(self) -> asyncio.Future:
        """Drain-then-close: refuse new frames, write out the backlog, close.

        Returns the future that resolves once the connection is gone.
        """
        if not self.closing:
            self.closing = True
            self._write = None
            if self._transport is None:
                self._gone()
            elif not self._paused:
                self._transport.close()
        return self.closed

    def _gone(self) -> None:
        self.closing = True
        self._write = None
        self._shed(len(self.backlog))
        self.backlog.clear()
        if not self.closed.done():
            self.closed.set_result(None)


class _InboundConnection(asyncio.Protocol):
    """One accepted connection: buffer, split, decode, dispatch — inline."""

    def __init__(self, owner: "AsyncioTransport", endpoint: "_Endpoint") -> None:
        self._owner = owner
        self._endpoint = endpoint
        self._peer: Optional[ValidatorId] = None
        self._link: Optional[PeerLink] = None
        self.frames_read = 0
        self._buffer = bytearray()
        self.transport: Optional[asyncio.Transport] = None
        self.closed: asyncio.Future = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self._owner._inbound.add(self)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        try:
            consumed = split_frames(buffer, self._deliver, self._owner.memo)
        except CodecError as error:
            self._reject(error)
            return
        del buffer[:consumed]

    def _deliver(self, message: Any) -> None:
        if self._peer is not None:
            self.frames_read += 1
            self._owner._dispatch(self._peer, self._endpoint, message)
        elif isinstance(message, Hello):
            peer = message.node_id
            registered = type(peer) is int and peer in self._owner._endpoints
            if not registered or peer == self._endpoint.node_id:
                raise FrameError(f"hello names {peer!r}, not another registered validator")
            self._peer = peer
            link = self._owner._links.get(peer, {}).get(self._endpoint.node_id)
            if link is not None and link.reader is None:
                link.reader, self._link = self, link
        else:
            raise FrameError(f"expected a hello frame, got {type(message).__name__}")

    def eof_received(self) -> None:
        have = len(self._buffer)
        if have >= 4:
            need = int.from_bytes(self._buffer[:4], "big")
            self._reject(FrameError(f"connection closed mid-frame ({have - 4}/{need} bytes)"))
        elif have:
            self._reject(FrameError(f"connection closed mid-header ({have}/4 bytes)"))

    def _reject(self, error: CodecError) -> None:
        origin = "unidentified peer" if self._peer is None else f"validator {self._peer}"
        self._owner._note(
            f"validator {self._endpoint.node_id}: closing connection from {origin}: {error}"
        )
        self._buffer.clear()
        self.transport.close()

    def connection_lost(self, error: Optional[Exception]) -> None:
        if error is not None:
            self._owner._note(
                f"validator {self._endpoint.node_id}: connection error: {error}"
            )
        self._owner._inbound.discard(self)
        self.closed.set_result(None)
        if self._link is not None:
            self._link.closed.add_done_callback(self._count_unread)

    def _count_unread(self, _closed: asyncio.Future) -> None:
        # Both ends are gone: what the link wrote and this end never read
        # (a rejected or lost connection) was lost on the way.
        self._owner.stats.messages_dropped += self._link.frames_sent - self.frames_read


class _Endpoint:
    __slots__ = ("node_id", "handler", "routes", "crashed", "server", "address")

    def __init__(self, node_id: ValidatorId, handler) -> None:
        self.node_id = node_id
        self.handler = handler
        # Message class -> handler, ahead of ``handler`` (``Network.route``).
        self.routes: Dict[type, Any] = {}
        self.crashed = False
        self.server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Any] = None


class AsyncioTransport:
    """The socket-backed `Network`.  See the module docstring."""

    def __init__(
        self,
        scheduler: MonotonicScheduler,
        socket_dir: str,
        family: str = "uds",
        connect_deadline: float = DEFAULT_CONNECT_DEADLINE,
        link_capacity: int = DEFAULT_LINK_CAPACITY,
    ) -> None:
        if family not in ("uds", "tcp"):
            raise NetworkError(f"unknown transport family {family!r} (uds or tcp)")
        self.simulator = scheduler
        self.stats = NetworkStats()
        self.family = family
        self.socket_dir = socket_dir
        self.connect_deadline = connect_deadline
        self.link_capacity = link_capacity
        # Loss/partition seam: a predicate over (sender, recipient,
        # encoded frame); return True to drop at the socket boundary.
        self.drop_filter: Optional[Callable[[ValidatorId, ValidatorId, bytes], bool]] = None
        # Human-readable transport events (connection closes, sheds) and
        # handler exceptions (fatal: surfaced by the runner).
        self.events: List[str] = []
        self.handler_errors: List[BaseException] = []
        self.tracer = None
        # The vertices this transport's validators encoded or verified.
        self.memo = VertexMemo()
        self._endpoints: Dict[ValidatorId, _Endpoint] = {}
        self._node_ids: Tuple[ValidatorId, ...] = ()
        # sender -> recipient -> link
        self._links: Dict[ValidatorId, Dict[ValidatorId, PeerLink]] = {}
        self._inbound: Set[_InboundConnection] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- registration (mirrors Network.register) ---------------------------------

    def register(self, node_id: ValidatorId, region: Region, handler) -> None:
        if node_id in self._endpoints:
            raise NetworkError(f"node {node_id} is already registered")
        self._endpoints[node_id] = _Endpoint(node_id, handler)
        self._node_ids = tuple(sorted(self._endpoints))

    def route(self, node_id: ValidatorId, routes: Dict[type, Any]) -> None:
        self._endpoints[node_id].routes = routes

    def install_observability(self, tracer, registry: Optional[Any] = None) -> None:
        self.tracer = tracer

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> None:
        """Bind every listener, then connect every ordered pair."""
        loop = self._loop = asyncio.get_running_loop()
        for node_id in self._node_ids:
            endpoint = self._endpoints[node_id]
            accept = functools.partial(_InboundConnection, self, endpoint)
            if self.family == "uds":
                endpoint.address = f"{self.socket_dir}/validator-{node_id}.sock"
                endpoint.server = await loop.create_unix_server(accept, path=endpoint.address)
            else:
                endpoint.server = await loop.create_server(accept, host="127.0.0.1", port=0)
                endpoint.address = endpoint.server.sockets[0].getsockname()[:2]
        connects = []
        for sender in self._node_ids:
            links = self._links[sender] = {}
            for recipient in self._node_ids:
                if sender == recipient:
                    continue
                link = links[recipient] = PeerLink(
                    owner=sender,
                    peer=recipient,
                    capacity=self.link_capacity,
                    stats=self.stats,
                    on_event=self._note,
                )
                connects.append(self._connect_with_deadline(recipient, lambda link=link: link))
        await asyncio.gather(*connects)

    async def _connect_with_deadline(
        self,
        recipient: ValidatorId,
        protocol_factory: Callable[[], asyncio.BaseProtocol] = asyncio.Protocol,
    ):
        """Connect ``protocol_factory()`` to ``recipient``'s listener.

        ``connection_made`` has run by the time this returns, so a
        :class:`PeerLink` has written its Hello.
        """
        loop = asyncio.get_running_loop()
        deadline = self.simulator.now + self.connect_deadline
        delay = 0.02
        endpoint = self._endpoints[recipient]
        while True:
            try:
                if self.family == "uds":
                    return await loop.create_unix_connection(protocol_factory, endpoint.address)
                host, port = endpoint.address
                return await loop.create_connection(protocol_factory, host, port)
            except OSError as error:
                if self.simulator.now >= deadline:
                    # Re-raise with errno and address intact so the CLI
                    # guard can print an actionable connection failure.
                    raise OSError(
                        error.errno,
                        f"cannot connect to validator {recipient} within "
                        f"{self.connect_deadline:.1f}s: {error.strerror or error}",
                        str(endpoint.address),
                    ) from error
                await asyncio.sleep(delay)
                delay = min(delay * 2, 0.25)

    async def shutdown(self) -> None:
        """Graceful stop: drain and close links, close listeners, then
        let every accepted connection read up to its peer's close."""
        closing = [link.close() for links in self._links.values() for link in links.values()]
        if closing:
            await asyncio.gather(*closing)
        for endpoint in self._endpoints.values():
            if endpoint.server is not None:
                endpoint.server.close()
                try:
                    await asyncio.wait_for(endpoint.server.wait_closed(), timeout=5.0)
                except (asyncio.TimeoutError, OSError):
                    pass
        if self._inbound:
            await asyncio.wait(
                [connection.closed for connection in self._inbound],
                timeout=_INBOUND_CLOSE_GRACE,
            )
        for connection in tuple(self._inbound):
            connection.transport.abort()

    # -- message flow -------------------------------------------------------------

    def send(self, sender: ValidatorId, recipient: ValidatorId, message: Any) -> None:
        self._send(sender, (recipient,), message)

    def broadcast(self, sender: ValidatorId, message: Any, include_self: bool = True) -> None:
        self.stats.broadcasts += 1
        recipients = self._node_ids
        if not include_self:
            recipients = [recipient for recipient in recipients if recipient != sender]
        self._send(sender, recipients, message)

    def _send(self, sender: ValidatorId, recipients: Sequence[ValidatorId], message: Any) -> None:
        """Encode ``message`` once; the frame goes straight onto each recipient's link."""
        stats = self.stats
        endpoint = self._endpoints[sender]
        frame = encode_frame(message, self.memo)
        if endpoint.crashed:
            stats.messages_sent += len(recipients)
            stats.messages_dropped += len(recipients)
            return
        drop_filter = self.drop_filter
        links = self._links[sender]
        for recipient in recipients:
            stats.messages_sent += 1
            if drop_filter is not None and drop_filter(sender, recipient, frame):
                stats.messages_dropped += 1
                stats.loss_drops += 1
            elif recipient == sender:
                # Self-delivery skips the socket but not the codec: the
                # local copy is decoded from the same frame a remote peer
                # would receive, so encodability bugs cannot hide locally,
                # and a frame it refuses is dropped as a peer's would be.
                try:
                    message = decode(frame[4:], self.memo)
                except CodecError as error:
                    stats.messages_dropped += 1
                    self._note(f"validator {sender}: refusing its own frame: {error}")
                else:
                    self._loop.call_soon(self._dispatch, sender, endpoint, message)
            else:
                # A shed frame is counted by the link.
                links[recipient].send_frame(frame)

    def _dispatch(self, sender: ValidatorId, endpoint: _Endpoint, message: Any) -> None:
        if endpoint.crashed:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        try:
            endpoint.routes.get(message.__class__, endpoint.handler)(sender, message)
        except Exception as error:  # noqa: BLE001 - surfaced by the runner
            self.handler_errors.append(error)
            self._note(
                f"validator {endpoint.node_id}: handler raised "
                f"{type(error).__name__}: {error}"
            )

    # -- crash semantics ----------------------------------------------------------

    def set_crashed(self, node_id: ValidatorId, crashed: bool = True) -> None:
        endpoint = self._endpoints[node_id]
        endpoint.crashed = crashed
        if not crashed or self._loop is None:
            return
        # Drain-then-close every outbound link: frames accepted before the
        # crash are in flight (the simulator delivers those too); the
        # listener closes so no new connection reaches a dead validator.
        if endpoint.server is not None:
            endpoint.server.close()
        for link in self._links.get(node_id, {}).values():
            link.close()

    def is_crashed(self, node_id: ValidatorId) -> bool:
        return self._endpoints[node_id].crashed

    # -- diagnostics --------------------------------------------------------------

    def _note(self, event: str) -> None:
        self.events.append(event)
