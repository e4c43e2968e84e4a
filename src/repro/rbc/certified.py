"""Narwhal-style certified broadcast.

Protocol (for one broadcast by validator ``p`` at round ``r``):

1. ``p`` sends a :class:`ProposeMessage` carrying the payload to every
   validator.
2. Each validator acknowledges the *first* proposal it sees from ``p`` for
   round ``r`` with an :class:`AckMessage` (this is what prevents an
   equivocating broadcaster from certifying two different payloads).
3. When ``p`` has collected acknowledgements covering a 2f+1 stake quorum,
   it assembles a :class:`CertificateMessage` and sends it to everyone
   inside a :class:`CertificateBatch`, the one envelope certificates
   travel in: one transport send per peer carries all certificates the
   validator emits for that round.
4. A validator delivers every valid certificate it splits out of a batch
   (a bare :class:`CertificateMessage` from a peer goes through the same
   loop as a batch of one): ``on_deliver`` gets the certificate, whose
   payload, round and origin are what was delivered.

The quorum intersection argument gives non-equivocation: two conflicting
certificates would require two quorums of acknowledgements whose
intersection contains an honest validator that acknowledged both, which an
honest validator never does.  Agreement across honest parties is completed
by the node-level synchronizer (parents referenced by a delivered vertex
are fetched from the vertex's source), mirroring Narwhal's certificate
fetcher.

Large-committee fast path
-------------------------

Three per-message costs dominated profiles at committee sizes of 25+ and
are engineered away here:

* **Acknowledgement accounting** used to rebuild a voter set and re-sum
  its stake on every ack (``O(n)`` per ack, ``O(n^2)`` per round).  An
  own broadcast round is one :class:`OwnRound` record (payload, digest,
  voter mask, stake, certified), so an ack is one dict read, a bit test
  and a stake add from the flat stake list; a repeated ack or one after
  certification changes nothing.
* **Certificate verification** recomputed the expected broadcast digest
  (an SHA-256 over a canonical preimage) at every one of the ``n``
  recipients of a certificate.  The digest is a pure function of
  ``(origin, round, payload fingerprint)``, so it is memoized
  process-wide (:data:`~repro.crypto.hashing.BROADCAST_DIGEST_MEMO`) and
  computed once per broadcast; batches verify their certificates in one
  pass over the shared memo.  The 2f+1 signer check is likewise memoized
  per signer tuple.  In a simulated committee one certificate *object*
  fans out to all peers, so the first recipient's success is remembered
  for that object under the committee's stake vector and later
  recipients are answered by identity inside the batch loop; a decoded,
  copied or differently-committee'd certificate is another object or
  another vector and takes both memoized checks, and a failure is never
  remembered.
* **Batched delivery** (:class:`CertificateBatch`) keeps the transport
  send count at one per peer per round regardless of how many
  certificates a validator emits; receivers split, deduplicate against
  the round's delivered-origins mask, mark the mask and hand each
  verified certificate to ``on_deliver`` from the batch loop's own frame,
  in batch order (parking/promotion of out-of-order vertices is exercised
  by the property suite).  The certificate is the delivery record: its
  payload, round and origin are ``r_deliver(m, r, i)``, and no other
  object is built for it.
"""

from __future__ import annotations

from functools import partial
from hashlib import sha256
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.committee import Committee
from repro.crypto.hashing import BROADCAST_DIGEST_MEMO, digest_of, evict_oldest_half
from repro.errors import BroadcastError
from repro.network.transport import Network
from repro.obs.trace import NULL_TRACER, Tracer
from repro.rbc.messages import (
    AckMessage,
    CertificateBatch,
    CertificateMessage,
    ProposeMessage,
)
from repro.types import Round, ValidatorId

# Verified certificate objects kept per stake vector, in rounds' worth of
# the committee's certificates: a fan-out spans a round or two, and an
# entry keeps its vertex and block alive past the DAG's GC window.
VERIFIED_CERTIFICATE_ROUNDS = 8


# Callback invoked exactly once per (origin, round) on delivery, with the
# verified certificate: its ``payload``, ``round`` and ``origin`` are
# ``r_deliver(m, r, i)`` in Definition 1.  In a simulated committee one
# certificate object reaches every recipient, so a callback reads it and
# never edits it.
DeliveryCallback = Callable[[CertificateMessage], None]


class OwnRound:
    """One broadcast of our own: everything an acknowledgement reads.

    ``voters`` is the bitmask of the validators that acked (bit ``v`` for
    validator ``v``) and ``stake`` their stake, accumulated one ack at a
    time; the mask's ascending bit order *is* the sorted voter order, so
    the certificate's signers tuple is read straight off it.  Once
    ``certified``, ``payload`` is ``None`` (the certificate carries it)
    and the record keeps its digest for the double-broadcast guard and
    late acks.
    """

    __slots__ = ("payload", "digest", "voters", "stake", "certified")

    def __init__(self, payload: Any, digest: bytes) -> None:
        self.payload = payload
        self.digest = digest
        self.voters = 0
        self.stake = 0
        self.certified = False


class CertifiedBroadcast:
    """O(n)-message reliable dissemination with explicit certificates."""

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
        # policies take the unconditional fast path of ``_fanout``, so
        # standalone protocol use and honest runs stay on the pre-policy
        # instruction sequence.  The owning node keeps this in sync via
        # ``ValidatorNode.set_behavior``.
        self.policy: Optional[Any] = None
        # Delivered origins per round (bit ``origin``): enforces the
        # Integrity property (at most one delivery per origin and round).
        self._delivered: Dict[Round, int] = {}
        self._size = committee.size
        # Our own broadcasts by round: an ack is one dict read.
        self._own_rounds: Dict[Round, OwnRound] = {}
        # First proposal digest acknowledged per round, in a slab indexed
        # by the proposal's (authenticated) sender.
        self._acked: Dict[Round, List[Optional[bytes]]] = {}
        self._stake_vector = committee.stake_vector
        self._stakes = committee.stake_vector.stakes
        self._quorum = committee.stake_vector.quorum
        # Class-keyed dispatch: cheaper than an isinstance chain on the
        # per-delivery path, and exact classes are the wire contract.
        self._handlers = {
            ProposeMessage: self._handle_propose,
            AckMessage: self._handle_ack,
            CertificateMessage: self._handle_certificates,
            CertificateBatch: self._handle_certificates,
        }

    def install_observability(self, tracer: Tracer, registry: Optional[Any]) -> None:
        """Attach a tracer (and optionally a counter registry)."""
        self._tracer = tracer
        self._tracing = tracer.enabled
        self._registry = registry

    @staticmethod
    def _broadcast_digest(origin: ValidatorId, round_number: Round, payload: Any) -> bytes:
        fingerprint = _payload_digest(payload)
        key = (origin, round_number, fingerprint)
        memo = BROADCAST_DIGEST_MEMO
        digest = memo.get(key)
        if digest is None:
            # Domain-separated binding of (origin, round, payload
            # fingerprint); hashed directly rather than through the
            # general canonical serializer.  The memo is process-wide:
            # the same digest is re-derived by every recipient of a
            # certificate, and the key embeds the content fingerprint,
            # so entries are shared across validators (and experiments)
            # safely.
            raw = fingerprint if isinstance(fingerprint, bytes) else repr(fingerprint).encode()
            digest = memo.put(
                key,
                sha256(
                    b"certified-broadcast|%d|%d|%b" % (origin, round_number, raw)
                ).digest(),
            )
        return digest

    # -- broadcasting -----------------------------------------------------------

    def broadcast(self, payload: Any, round_number: Round) -> None:
        """``r_bcast(m, r)``: disseminate ``payload`` for ``round_number``."""
        digest = self._broadcast_digest(self.node_id, round_number, payload)
        if round_number in self._own_rounds:
            raise BroadcastError(
                f"validator {self.node_id} already broadcast for round {round_number}"
            )
        self._own_rounds[round_number] = OwnRound(payload, digest)
        message = ProposeMessage(
            origin=self.node_id,
            round=round_number,
            digest=digest,
            payload=payload,
        )
        self._fanout(message, round_number)

    def make_propose(self, payload: Any, round_number: Round) -> ProposeMessage:
        """Build a well-formed proposal for ``payload`` (protocol digest).

        Used by :meth:`_fanout` to turn a policy's payload substitution
        (equivocation) into a wire message whose digest the receiving
        validators will verify successfully.
        """
        return ProposeMessage(
            origin=self.node_id,
            round=round_number,
            digest=self._broadcast_digest(self.node_id, round_number, payload),
            payload=payload,
        )

    def _emit_certificates(
        self, round_number: Round, certificates: Tuple[CertificateMessage, ...]
    ) -> None:
        """Fan out the certificates we emit for ``round_number`` as one
        :class:`CertificateBatch`: one transport send per peer."""
        if self._registry is not None:
            # Batch fill: certificates coalesced per emitted envelope.
            self._registry.observe("rbc.batch_fill", len(certificates))
        envelope = CertificateBatch(
            origin=self.node_id,
            round=round_number,
            digest=certificates[0].digest,
            certificates=certificates,
        )
        self._fanout(envelope, round_number)

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

    # -- message handling ----------------------------------------------------------

    def handle_message(self, sender: ValidatorId, message: Any) -> bool:
        """Process a network message.

        Returns ``True`` when the message belonged to the broadcast layer
        (and was consumed), ``False`` otherwise so the caller can dispatch
        it elsewhere.
        """
        handler = self._handlers.get(message.__class__)
        if handler is None:
            return False
        handler(sender, message)
        return True

    def _handle_propose(self, sender: ValidatorId, message: ProposeMessage) -> None:
        if sender != message.origin or not 0 <= sender < self._size:
            # Proposals are only valid coming directly from their origin (a member).
            return
        policy = self.policy
        if (
            policy is not None
            and not policy.transparent
            and not policy.should_ack(message.origin, message.round)
        ):
            # Behavior policy: withhold the acknowledgement entirely (and
            # record nothing, so an honest relapse could still ack).
            if self._tracing:
                self._tracer.emit(
                    "adversary_ack_withheld",
                    node=self.node_id,
                    round=message.round,
                    origin=message.origin,
                )
            return
        acked = self._acked.get(message.round)
        if acked is None:
            acked = self._acked[message.round] = [None] * self._size
        previously_acked = acked[sender]
        if previously_acked is not None and previously_acked != message.digest:
            # Equivocation attempt: never acknowledge a second payload.
            return
        acked[sender] = message.digest
        ack = AckMessage(
            origin=message.origin,
            round=message.round,
            digest=message.digest,
            voter=self.node_id,
        )
        self.network.send(self.node_id, message.origin, ack)

    def _handle_ack(self, sender: ValidatorId, message: AckMessage) -> None:
        if message.origin != self.node_id:
            return
        own = self._own_rounds.get(message.round)
        if (
            own is None
            or own.certified
            or message.digest != own.digest
            or message.voter != sender
            or not 0 <= sender < self._size
        ):
            return
        voter_bit = 1 << sender
        voters = own.voters
        if voters & voter_bit:
            # A repeated ack adds no stake, so it cannot certify.
            return
        voters |= voter_bit
        own.voters = voters
        own.stake += self._stakes[sender]
        if own.stake < self._quorum:
            return
        own.certified = True
        # From here on the certificate carries the payload.
        payload = own.payload
        own.payload = None
        if self._tracing:
            self._tracer.emit(
                "vertex_certified",
                node=self.node_id,
                round=message.round,
                signers=voters.bit_count(),
            )
        certificate = CertificateMessage(
            origin=self.node_id,
            round=message.round,
            digest=own.digest,
            payload=payload,
            # Ascending-bit order == sorted voter ids, so the wire
            # tuple is identical to the pre-bitmask encoding.
            signers=self._stake_vector.validators_of_mask(voters),
        )
        self._emit_certificates(message.round, (certificate,))

    def _verify_certificate(self, message: CertificateMessage) -> bool:
        """One certificate's aggregate check: signer quorum + digest.

        An object that already passed under this stake vector is answered
        by identity before this is called (``_handle_certificates``), and
        a success is remembered for that here.  Both halves are memoized
        process-wide (the signer tuple and the digest preimage are shared
        by all recipients of one fan-out), so a batch is verified in a
        single pass over cached verdicts.  The tuple memo's miss path
        converts to a bitmask once and decides via
        :meth:`~repro.committee.stake.StakeVector.mask_has_quorum`;
        calling the converter per verification instead costs O(signers)
        per certificate and measurably regressed committee-100 runs.
        """
        vector = self._stake_vector
        if not vector.signer_tuple_has_quorum(message.signers):
            # An invalid certificate cannot trigger delivery.
            return False
        if self._broadcast_digest(message.origin, message.round, message.payload) != message.digest:
            return False
        # Only a success is remembered, and the memo holds the object, so
        # its ``id`` cannot be reused while the entry lives.  Sound only
        # because a message is never edited in place once built (the
        # dataclasses in ``rbc/messages.py`` are not frozen; see there).
        verified = vector.verified_certificates
        evict_oldest_half(verified, VERIFIED_CERTIFICATE_ROUNDS * self._size)
        verified[id(message)] = message
        return True

    def _handle_certificates(self, sender: ValidatorId, message: Any) -> None:
        """Split a batch: dedup, verify, and deliver in batch order.

        A bare certificate from a peer is a batch of one.  Delivery order
        within a batch is the emitter's order; vertices whose parents are
        still missing are parked by the DAG store and promoted when the
        parent arrives (possibly later in the same batch).
        """
        certificates = (message,) if message.__class__ is CertificateMessage else message.certificates
        delivered = self._delivered
        size = self._size
        verified = self._stake_vector.verified_certificates
        for certificate in certificates:
            origin = certificate.origin
            if not 0 <= origin < size:  # bounded before it becomes a shift
                continue
            round_number = certificate.round
            origins = delivered.get(round_number, 0)
            if origins >> origin & 1:
                continue
            if verified.get(id(certificate)) is not certificate and not self._verify_certificate(certificate):
                continue
            delivered[round_number] = origins | 1 << origin
            if self._tracing:
                self._tracer.emit(
                    "payload_delivered",
                    node=self.node_id,
                    round=round_number,
                    origin=origin,
                )
            self.on_deliver(certificate)


def _payload_digest(payload: Any) -> Any:
    """Best-effort content fingerprint of an arbitrary payload."""
    digest = getattr(payload, "digest", None)
    if digest is not None:
        return digest
    try:
        return digest_of(payload)
    except TypeError:
        return repr(payload)
