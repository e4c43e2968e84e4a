"""Message transport between simulated nodes.

The :class:`Network` routes opaque messages between registered nodes,
applying the latency model, the partial-synchrony model, per-node link
degradation (used to model slow validators), and crash state (crashed
nodes neither send nor receive).  Point-to-point channels are
reliable and authenticated, matching the QUIC channels of the production
implementation: messages are never corrupted, reordering can only arise
from differing delays, and the sender identity attached to a delivery is
trustworthy.

Scenario hooks
--------------

Fault plans (see :mod:`repro.faults`) can additionally disturb the whole
fabric for bounded windows of virtual time:

* :meth:`Network.set_partition` splits the nodes into groups; messages
  crossing a group boundary are dropped until :meth:`clear_partition`.
* :meth:`Network.add_disturbance` opens a window that adds a uniformly
  random extra delay to every delivery (drawn from the simulator RNG, so
  runs stay deterministic) and drops each message independently with the
  given probability, until :meth:`remove_disturbance`.  The
  reliable-channel abstraction is restored by the synchronizer: missing
  vertices are re-fetched once the window closes.
"""

from __future__ import annotations

import dataclasses
from heapq import heappush as _heappush
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.errors import NetworkError
from repro.network.latency import GeoLatencyModel, LatencyModel
from repro.network.simulator import Simulator
from repro.network.synchrony import AlwaysSynchronous, SynchronyModel
from repro.obs.trace import NULL_TRACER, Tracer
from repro.types import Region, SimTime

# A delivery handler receives (sender_id, message).
DeliveryHandler = Callable[[int, Any], None]
# One sender's view of the fabric: ``(endpoint, base delay)`` per node.
_Row = Tuple[Tuple["_Endpoint", SimTime], ...]


@dataclasses.dataclass
class NetworkStats:
    """Counters describing network usage during a run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    broadcasts: int = 0
    partition_drops: int = 0
    loss_drops: int = 0


@dataclasses.dataclass
class _Endpoint:
    """Internal registration record of one node."""

    node_id: int
    region: Region
    handler: DeliveryHandler
    index: int  # registration position: where the node sits in every row
    crashed: bool = False
    inbound_extra_delay: SimTime = 0.0
    outbound_extra_delay: SimTime = 0.0


def _deliver_message(
    destination: _Endpoint, stats: NetworkStats, sender: int, message: Any
) -> None:
    """Fire one delivery (shared event callback, see ``Network._fan_out``).

    Crash state is re-read at delivery time: a node that crashed while
    the message was in flight must not process it, and a node that
    recovered may.
    """
    if destination.crashed:
        stats.messages_dropped += 1
        return
    stats.messages_delivered += 1
    destination.handler(sender, message)


class Network:
    """Reliable, authenticated point-to-point channels between nodes."""

    # Observability (repro.obs).  The tracer is consulted only on the
    # rare paths (drops, partition/disturbance/crash transitions); the
    # common deliver path carries no tracing check at all.  ``_counters``
    # is a registry only when detailed per-type accounting is on.
    tracer: Tracer = NULL_TRACER
    _tracing = False
    _counters: Optional[Any] = None

    def __init__(
        self,
        simulator: Simulator,
        latency_model: LatencyModel,
        synchrony: Optional[SynchronyModel] = None,
    ) -> None:
        self.simulator = simulator
        self.latency_model = latency_model
        self.synchrony = synchrony if synchrony is not None else AlwaysSynchronous(delta=2.0)
        self.stats = NetworkStats()
        self._endpoints: Dict[int, _Endpoint] = {}
        # Scenario disturbances (see the module docstring).  Windows stack:
        # each active disturbance holds a token slot, the effective jitter
        # is the maximum over active windows and the effective loss rate
        # composes as independent drops, so overlapping windows never stomp
        # each other when one of them closes.
        self._partition_groups: Optional[Dict[int, int]] = None
        self._disturbances: Dict[int, Tuple[SimTime, float]] = {}
        self._next_disturbance_token = 0
        self._jitter: SimTime = 0.0
        self._loss_rate: float = 0.0
        # Per-sender rows (see ``_row``).  Regions are fixed at registration,
        # so rows are dropped only when a node registers or the latency
        # model object is swapped out (tests do this).
        self._rows: Dict[int, _Row] = {}
        self._rows_model: Optional[LatencyModel] = None

    def install_observability(self, tracer: Tracer, registry: Optional[Any] = None) -> None:
        """Attach a tracer (and optionally a counter registry).

        Faults read ``network.tracer`` at event time, so installing
        before ``run()`` is enough for window open/close events.
        """
        self.tracer = tracer
        self._tracing = tracer.enabled
        self._counters = registry

    # -- registration --------------------------------------------------------

    def register(self, node_id: int, region: Region, handler: DeliveryHandler) -> None:
        """Register a node so it can send and receive messages."""
        if node_id in self._endpoints:
            raise NetworkError(f"node {node_id} is already registered")
        self._endpoints[node_id] = _Endpoint(node_id, region, handler, len(self._endpoints))
        self._rows.clear()

    def _endpoint(self, node_id: int) -> _Endpoint:
        endpoint = self._endpoints.get(node_id)
        if endpoint is None:
            raise NetworkError(f"node {node_id} is not registered")
        return endpoint

    # -- fault control ---------------------------------------------------------

    def set_crashed(self, node_id: int, crashed: bool = True) -> None:
        """Crash (or recover) a node.  Crashed nodes drop all traffic."""
        self._endpoint(node_id).crashed = crashed
        if self._tracing:
            self.tracer.emit(
                "validator_crashed" if crashed else "validator_recovered",
                validator=node_id,
            )

    def is_crashed(self, node_id: int) -> bool:
        return self._endpoint(node_id).crashed

    def set_link_degradation(
        self,
        node_id: int,
        inbound_extra: SimTime = 0.0,
        outbound_extra: SimTime = 0.0,
    ) -> None:
        """Degrade the links of a node (models a slow or overloaded validator)."""
        if inbound_extra < 0 or outbound_extra < 0:
            raise NetworkError("link degradation must be non-negative")
        endpoint = self._endpoint(node_id)
        endpoint.inbound_extra_delay = inbound_extra
        endpoint.outbound_extra_delay = outbound_extra

    def set_partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Partition the network into ``groups`` of nodes.

        While a partition is active, messages between nodes of different
        groups are dropped.  Nodes not listed in any group form one
        implicit extra group together (they can still talk to each other,
        but to nobody else).  A later call replaces the previous
        partition wholesale.
        """
        mapping: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if node_id in mapping:
                    raise NetworkError(f"node {node_id} appears in two partition groups")
                mapping[node_id] = index
        self._partition_groups = mapping
        if self._tracing:
            indices = sorted(set(mapping.values()))
            self.tracer.emit(
                "partition_set",
                groups=[
                    sorted(n for n, g in mapping.items() if g == index) for index in indices
                ],
            )

    def clear_partition(self) -> None:
        """Heal any active partition."""
        self._partition_groups = None
        if self._tracing:
            self.tracer.emit("partition_cleared")

    def add_disturbance(self, jitter: SimTime = 0.0, loss_rate: float = 0.0) -> int:
        """Open a disturbance window; returns a token for its removal.

        Windows compose instead of overwriting each other: the effective
        jitter is the maximum over active windows, and losses combine as
        independent drop probabilities.
        """
        if jitter < 0:
            raise NetworkError("jitter amplitude must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError("the loss rate must lie in [0, 1)")
        token = self._next_disturbance_token
        self._next_disturbance_token += 1
        self._disturbances[token] = (jitter, loss_rate)
        self._recompute_disturbance()
        if self._tracing:
            self.tracer.emit(
                "disturbance_open", token=token, jitter=jitter, loss_rate=loss_rate
            )
        return token

    def remove_disturbance(self, token: int) -> None:
        """Close the disturbance window identified by ``token``."""
        removed = self._disturbances.pop(token, None)
        self._recompute_disturbance()
        if self._tracing and removed is not None:
            self.tracer.emit("disturbance_close", token=token)

    def _recompute_disturbance(self) -> None:
        jitter = 0.0
        keep = 1.0
        # Float multiplication is not associative: fold the windows in
        # token order so the composed loss rate cannot depend on dict
        # iteration order (tokens ascend, so this matches insertion).
        for _token, (window_jitter, window_loss) in sorted(self._disturbances.items()):
            if window_jitter > jitter:
                jitter = window_jitter
            keep *= 1.0 - window_loss
        self._jitter = jitter
        self._loss_rate = 1.0 - keep

    # -- sending ---------------------------------------------------------------

    def send(self, sender: int, recipient: int, message: Any) -> None:
        """Send ``message`` from ``sender`` to ``recipient``.

        Sending from a crashed node drops the message (and counts it),
        matching how a crashed process behaves in the real system.  An
        unregistered sender or recipient raises :class:`NetworkError`.
        """
        endpoints = self._endpoints
        source = endpoints.get(sender)
        if source is None:
            raise NetworkError(f"node {sender} is not registered")
        destination = endpoints.get(recipient)
        if destination is None:
            raise NetworkError(f"recipient {recipient} is not registered")
        stats = self.stats
        stats.messages_sent += 1
        if self._counters is not None:
            self._counters.count_message(message)
        if source.crashed:
            stats.messages_dropped += 1
            if self._tracing:
                self._trace_drop(sender, recipient, message, "sender_crashed")
            return
        self._fan_out(source, ((self._row(source)[destination.index], message),))

    def _trace_drop(self, sender: int, recipient: int, message: Any, reason: str) -> None:
        fields: Dict[str, Any] = {
            "sender": sender,
            "destination": recipient,
            "type": type(message).__name__,
            "reason": reason,
        }
        if reason == "loss" and self._disturbances:
            # The loss-window id responsible for the drop.  Windows
            # compose, so the drop is attributed to the newest open one
            # (tokens ascend in open order) — enough for `repro.obs
            # explain` to tie a dropped certificate back to its fault
            # window.
            fields["window"] = max(self._disturbances)
        origin = getattr(message, "origin", None)
        if origin is not None:
            # Broadcast-layer envelopes identify the broadcast they carry;
            # recovery analysis joins drops to later deliveries on this.
            fields["origin"] = origin
            fields["round"] = message.round
        self.tracer.emit("message_dropped", **fields)

    def _row(self, source: _Endpoint) -> _Row:
        """``source``'s row: every node in registration order, each with
        the geo model's base delay from ``source`` (unused by other models)."""
        model = self.latency_model
        if model is not self._rows_model:
            self._rows.clear()
            self._rows_model = model
        row = self._rows.get(source.node_id)
        if row is None:
            geo = type(model) is GeoLatencyModel
            row = self._rows[source.node_id] = tuple(
                (destination, model.base_delay(source.region, destination.region) if geo else 0.0)
                for destination in sorted(self._endpoints.values(), key=lambda endpoint: endpoint.index)
            )
        return row

    def _fan_out(self, source: _Endpoint, sends: Iterable[Tuple[Tuple[_Endpoint, SimTime], Any]]) -> None:
        """Schedule one delivery per ``(row entry, message)``, in order.

        The one fan-out loop: partition check, loss draw, delay, heap
        push, with everything the sender fixes read once.  For the default
        models the delay is ``GeoLatencyModel.one_way_delay`` (its uniform
        jitter as the bit-identical ``2j * random() - j``), link extras
        and window jitter, capped at delta, in exactly
        ``_delivery_delay``'s float-operation and RNG-draw order;
        self-delivery and other models call it.  The push skips
        ``schedule_at``'s past-time guard (no delay is negative) and
        carries the delivery arguments on a raw event, not a closure.
        """
        stats = self.stats
        sender = source.node_id
        simulator = self.simulator
        rng = simulator.rng
        random = rng.random
        now = simulator._now
        heap = simulator._heap
        groups = self._partition_groups
        # Unlisted nodes share the implicit group -1.
        sender_group = groups.get(sender, -1) if groups is not None else -1
        loss_rate = self._loss_rate
        model = self.latency_model
        synchrony = self.synchrony
        inline = type(model) is GeoLatencyModel and type(synchrony) is AlwaysSynchronous
        if inline:
            fraction = model.jitter_fraction
            extra = model.extra_latency
            source_region = source.region.name
            outbound = source.outbound_extra_delay
            window = self._jitter
            delta = synchrony.delta
        for (destination, delay), message in sends:
            if destination is source:
                delay = self._delivery_delay(source, destination)
            else:
                if groups is not None and sender_group != groups.get(destination.node_id, -1):
                    stats.messages_dropped += 1
                    stats.partition_drops += 1
                    if self._tracing:
                        self._trace_drop(sender, destination.node_id, message, "partition")
                    continue
                if loss_rate > 0.0 and random() < loss_rate:
                    stats.messages_dropped += 1
                    stats.loss_drops += 1
                    if self._tracing:
                        self._trace_drop(sender, destination.node_id, message, "loss")
                    continue
                if inline:
                    if extra:
                        delay += extra.get(source_region, 0.0)
                        delay += extra.get(destination.region.name, 0.0)
                    jitter = delay * fraction
                    delay += jitter * 2.0 * random() - jitter
                    if delay < 0.0002:
                        delay = 0.0002
                    delay += outbound + destination.inbound_extra_delay
                    if window > 0.0:
                        delay += rng.uniform(0.0, window)
                    if delay > delta:
                        delay = delta
                else:
                    delay = self._delivery_delay(source, destination)
            sequence = simulator._next_sequence
            simulator._next_sequence = sequence + 1
            _heappush(
                heap,
                (now + delay, sequence, None, _deliver_message, (destination, stats, sender, message)),
            )

    def broadcast(self, sender: int, message: Any, include_self: bool = True) -> None:
        """Send ``message`` from ``sender`` to every registered node.

        This is the certificate/proposal fan-out path: one call issues
        ``n`` sends through one pass of :meth:`_fan_out` over the sender's
        row.  Recipient order (registration order), RNG draw order, and
        all statistics counters are identical to looping over
        :meth:`send` — batched envelopes change what a send carries, never
        how many sends happen or when.
        """
        stats = self.stats
        stats.broadcasts += 1
        source = self._endpoint(sender)
        row = self._row(source)
        if not include_self:
            row = row[: source.index] + row[source.index + 1 :]
        stats.messages_sent += len(row)
        if self._counters is not None:
            self._counters.count_message(message, len(row))
        if source.crashed:
            stats.messages_dropped += len(row)
            if self._tracing:
                self._trace_drop(sender, -1, message, "sender_crashed")
            return
        self._fan_out(source, zip(row, repeat(message)))

    def _delivery_delay(self, source: _Endpoint, destination: _Endpoint) -> SimTime:
        """The delay by the models' own methods (what ``_fan_out`` does not inline)."""
        rng = self.simulator.rng
        if source is destination:
            base = self.latency_model.local_delay(rng)
        else:
            base = self.latency_model.one_way_delay(source.region, destination.region, rng)
        base += source.outbound_extra_delay + destination.inbound_extra_delay
        if self._jitter > 0.0 and source is not destination:
            base += rng.uniform(0.0, self._jitter)
        adjusted = self.synchrony.adjust_delay(self.simulator.now, base, rng)
        return adjusted if adjusted > 0.0 else 0.0

    # -- introspection --------------------------------------------------------------
