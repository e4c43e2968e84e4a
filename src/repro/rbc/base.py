"""Common interface of reliable broadcast implementations."""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional

from repro.committee import Committee
from repro.network.transport import Network
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rbc.messages import ProposeMessage
from repro.types import Round, SimTime, ValidatorId


class Delivery:
    """A delivered broadcast: ``r_deliver(m, r, i)`` in Definition 1.

    A plain slotted class rather than a frozen dataclass: one instance is
    materialized per delivered vertex, and the frozen-dataclass
    ``object.__setattr__`` per field was measurable on that path.
    """

    __slots__ = ("payload", "round", "origin", "delivered_at")

    def __init__(
        self,
        payload: Any,
        round: Round,
        origin: ValidatorId,
        delivered_at: SimTime,
    ) -> None:
        self.payload = payload
        self.round = round
        self.origin = origin
        self.delivered_at = delivered_at

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Delivery):
            return NotImplemented
        return (
            self.payload == other.payload
            and self.round == other.round
            and self.origin == other.origin
            and self.delivered_at == other.delivered_at
        )

    def __hash__(self) -> int:
        # Defining __eq__ would otherwise null __hash__; the frozen
        # dataclass this replaced was hashable, so keep that contract.
        return hash((self.payload, self.round, self.origin, self.delivered_at))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Delivery(payload={self.payload!r}, round={self.round}, "
            f"origin={self.origin}, delivered_at={self.delivered_at})"
        )


# Callback invoked exactly once per (origin, round) on delivery.
DeliveryCallback = Callable[[Delivery], None]


class BroadcastProtocol:
    """The broadcast interface the validator node programs against."""

    # Observability (repro.obs): the registry is only non-None when a
    # run asks for detailed instrumentation (batch-fill histograms).
    _tracer: Tracer = NULL_TRACER
    _tracing = False
    _registry: Optional[Any] = None

    def __init__(
        self,
        node_id: ValidatorId,
        committee: Committee,
        network: Network,
        on_deliver: DeliveryCallback,
    ) -> None:
        self.node_id = node_id
        self.committee = committee
        self.network = network
        self.on_deliver = on_deliver
        # Behavior policy governing this node's fan-out and participation
        # decisions (see :mod:`repro.behavior`).  ``None`` and transparent
        # policies take the unconditional fast path below, so standalone
        # protocol use and honest runs stay on the pre-policy instruction
        # sequence.  The owning node keeps this in sync via
        # ``ValidatorNode.set_behavior``.
        self.policy: Optional[Any] = None
        # Delivered origins per round (bit ``origin``): enforces the
        # Integrity property (at most one delivery per origin and round).
        self._delivered: Dict[Round, int] = {}
        self._size = committee.size

    def install_observability(self, tracer: Tracer, registry: Optional[Any]) -> None:
        """Attach a tracer (and optionally a counter registry)."""
        self._tracer = tracer
        self._tracing = tracer.enabled
        self._registry = registry

    # -- API ------------------------------------------------------------------

    def broadcast(self, payload: Any, round_number: Round) -> None:
        """``r_bcast(m, r)``: disseminate ``payload`` for ``round_number``."""
        raise NotImplementedError

    def handle_message(self, sender: ValidatorId, message: Any) -> bool:
        """Process a network message.

        Returns ``True`` when the message belonged to the broadcast layer
        (and was consumed), ``False`` otherwise so the caller can dispatch
        it elsewhere.
        """
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------

    def make_propose(self, payload: Any, round_number: Round) -> ProposeMessage:
        """Build a well-formed proposal for ``payload`` (protocol digest).

        Used by the fan-out enactment below to turn a policy's payload
        substitution (equivocation) into a wire message whose digest the
        receiving validators will verify successfully.
        """
        raise NotImplementedError

    def _fanout(self, message: Any, round_number: Round) -> None:
        """Fan an own message out to the committee, policy permitting.

        The honest path is the first branch: without an active policy the
        call collapses to the transport broadcast this method replaced,
        preserving RNG draw order and event sequence exactly.  An active
        policy may return a per-recipient plan; recipients omitted from
        the plan are dropped, directives may substitute the payload
        (proposals only) or delay the send by extra virtual time.
        """
        policy = self.policy
        if policy is None or policy.transparent:
            self.network.broadcast(self.node_id, message, include_self=True)
            return
        plan = policy.plan_fanout(message, round_number, self.committee.validators)
        if plan is None:
            self.network.broadcast(self.node_id, message, include_self=True)
            return
        network = self.network
        simulator = network.simulator
        substitutable = isinstance(message, ProposeMessage)
        for directive in plan:
            wire = message
            if directive.payload is not None and substitutable:
                wire = self.make_propose(directive.payload, round_number)
            if directive.delay > 0.0:
                # Crash/partition/loss state is evaluated when the send
                # fires, exactly as for an honest message sent late.
                simulator.schedule(
                    directive.delay,
                    partial(network.send, self.node_id, directive.recipient, wire),
                )
            else:
                network.send(self.node_id, directive.recipient, wire)

    def _participates(self, origin: ValidatorId, round_number: Round) -> bool:
        """Ack participation decision for ``origin``'s proposal."""
        policy = self.policy
        if policy is None or policy.transparent:
            return True
        return policy.should_ack(origin, round_number)

    def _deliver(self, payload: Any, round_number: Round, origin: ValidatorId) -> None:
        if not 0 <= origin < self._size:  # bounded before it becomes a shift
            return
        delivered = self._delivered.get(round_number, 0)
        if delivered >> origin & 1:
            return
        self._delivered[round_number] = delivered | 1 << origin
        if self._tracing:
            self._tracer.emit(
                "payload_delivered",
                node=self.node_id,
                round=round_number,
                origin=origin,
            )
        self.on_deliver(
            Delivery(
                payload=payload,
                round=round_number,
                origin=origin,
                delivered_at=self._now(),
            )
        )

    def has_delivered(self, origin: ValidatorId, round_number: Round) -> bool:
        return 0 <= origin < self._size and bool(self._delivered.get(round_number, 0) >> origin & 1)

    def _now(self) -> SimTime:
        return self.network.simulator.now
