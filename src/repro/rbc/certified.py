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
4. A validator delivers the payload of every valid certificate it splits
   out of a batch (a bare :class:`CertificateMessage` from a peer is
   verified and delivered the same way).

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
  its stake on every ack (``O(n)`` per ack, ``O(n^2)`` per round); the
  stake of the voter set is now accumulated incrementally, making each
  ack O(1).
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
  recipients are answered by identity; a decoded, copied or
  differently-committee'd certificate is another object or another
  vector and takes both memoized checks, and a failure is never
  remembered.
* **Batched delivery** (:class:`CertificateBatch`) keeps the transport
  send count at one per peer per round regardless of how many
  certificates a validator emits; receivers split, deduplicate against
  the round's delivered-origins mask, and hand the payloads to
  the DAG in batch order (parking/promotion of out-of-order vertices is
  exercised by the property suite).
"""

from __future__ import annotations

from hashlib import sha256
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.committee import Committee
from repro.crypto.hashing import BROADCAST_DIGEST_MEMO, digest_of, evict_oldest_half
from repro.errors import BroadcastError
from repro.network.transport import Network
from repro.rbc.base import BroadcastProtocol, DeliveryCallback
from repro.rbc.messages import (
    AckMessage,
    CertificateBatch,
    CertificateMessage,
    ProposeMessage,
)
from repro.types import Round, Stake, ValidatorId

# Verified certificate objects kept per stake vector, in rounds' worth of
# the committee's certificates: a fan-out spans a round or two, and an
# entry keeps its vertex and block alive past the DAG's GC window.
VERIFIED_CERTIFICATE_ROUNDS = 8


class CertifiedBroadcast(BroadcastProtocol):
    """O(n)-message reliable dissemination with explicit certificates."""

    def __init__(
        self,
        node_id: ValidatorId,
        committee: Committee,
        network: Network,
        on_deliver: DeliveryCallback,
    ) -> None:
        super().__init__(node_id, committee, network, on_deliver)
        # Acks received for broadcasts we originated: round -> voter
        # bitmask (bit ``v`` set iff validator ``v`` acked), with the
        # voter set's stake accumulated incrementally so each ack costs
        # O(1).  The mask's ascending bit order *is* the sorted voter
        # order, so the certificate's signers tuple is read straight off
        # it — byte-identical to the old ``tuple(sorted(voter_set))``.
        self._ack_masks: Dict[Round, int] = {}
        self._ack_stake: Dict[Round, Stake] = {}
        # (payload, digest) of our own broadcasts, keyed by round; the
        # payload is ``None`` once the round certified.
        self._own_payloads: Dict[Round, Tuple[Any, bytes]] = {}
        # Rounds we already certified (to send the certificate only once).
        self._certified: Set[Round] = set()
        # First proposal digest acknowledged per round, in a slab indexed
        # by the proposal's (authenticated) sender.
        self._acked: Dict[Round, List[Optional[bytes]]] = {}
        self._stake_vector = committee.stake_vector
        # Class-keyed dispatch: cheaper than an isinstance chain on the
        # per-delivery path, and exact classes are the wire contract.
        self._handlers = {
            ProposeMessage: self._handle_propose,
            AckMessage: self._handle_ack,
            CertificateMessage: self._handle_certificate,
            CertificateBatch: self._handle_certificate_batch,
        }

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
        digest = self._broadcast_digest(self.node_id, round_number, payload)
        if round_number in self._own_payloads:
            raise BroadcastError(
                f"validator {self.node_id} already broadcast for round {round_number}"
            )
        self._own_payloads[round_number] = (payload, digest)
        self._ack_masks[round_number] = 0
        self._ack_stake[round_number] = 0
        message = ProposeMessage(
            origin=self.node_id,
            round=round_number,
            digest=digest,
            payload=payload,
        )
        self._fanout(message, round_number)

    def make_propose(self, payload: Any, round_number: Round) -> ProposeMessage:
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

    # -- message handling ----------------------------------------------------------

    def handle_message(self, sender: ValidatorId, message: Any) -> bool:
        handler = self._handlers.get(message.__class__)
        if handler is None:
            return False
        handler(sender, message)
        return True

    def _handle_propose(self, sender: ValidatorId, message: ProposeMessage) -> None:
        if sender != message.origin or not 0 <= sender < self._size:
            # Proposals are only valid coming directly from their origin (a member).
            return
        if not self._participates(message.origin, message.round):
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
        own = self._own_payloads.get(message.round)
        if own is None:
            return
        payload, digest = own
        if message.digest != digest or message.voter != sender or not 0 <= sender < self._size:
            return
        if message.round in self._certified:
            return
        voter_bit = 1 << sender
        voters = self._ack_masks.get(message.round, 0)
        if not voters & voter_bit:
            voters |= voter_bit
            self._ack_masks[message.round] = voters
            stake = self._ack_stake.get(message.round, 0) + self.committee.stake_of(sender)
            self._ack_stake[message.round] = stake
        else:
            stake = self._ack_stake[message.round]
        if stake >= self._stake_vector.quorum:
            self._certified.add(message.round)
            # From here on the certificate carries the payload; the round
            # keeps its digest for the double-broadcast guard and late acks.
            self._own_payloads[message.round] = (None, digest)
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
                digest=digest,
                payload=payload,
                # Ascending-bit order == sorted voter ids, so the wire
                # tuple is identical to the pre-bitmask encoding.
                signers=self._stake_vector.validators_of_mask(voters),
            )
            self._emit_certificates(message.round, (certificate,))

    def _verify_certificate(self, message: CertificateMessage) -> bool:
        """One certificate's aggregate check: signer quorum + digest.

        An object that already passed under this stake vector is answered
        by identity.  Otherwise both halves are memoized process-wide (the
        signer tuple and the digest preimage are shared by all recipients
        of one fan-out), so a batch is verified in a single pass over
        cached verdicts.  The tuple memo's miss path converts to a
        bitmask once and decides via
        :meth:`~repro.committee.stake.StakeVector.mask_has_quorum`;
        calling the converter per verification instead costs O(signers)
        per certificate and measurably regressed committee-100 runs.
        """
        vector = self._stake_vector
        verified = vector.verified_certificates
        if verified.get(id(message)) is message:
            return True
        if not vector.signer_tuple_has_quorum(message.signers):
            # An invalid certificate cannot trigger delivery.
            return False
        if self._broadcast_digest(message.origin, message.round, message.payload) != message.digest:
            return False
        # Only a success is remembered, and the memo holds the object, so
        # its ``id`` cannot be reused while the entry lives.  Sound only
        # because a message is never edited in place once built (the
        # dataclasses in ``rbc/messages.py`` are not frozen; see there).
        evict_oldest_half(verified, VERIFIED_CERTIFICATE_ROUNDS * self._size)
        verified[id(message)] = message
        return True

    def _handle_certificate(self, sender: ValidatorId, message: CertificateMessage) -> None:
        if not 0 <= message.origin < self._size:
            return
        if self.has_delivered(message.origin, message.round):
            # Duplicate delivery is a no-op either way; skip verification.
            return
        if self._verify_certificate(message):
            self._deliver(message.payload, message.round, message.origin)

    def _handle_certificate_batch(self, sender: ValidatorId, message: CertificateBatch) -> None:
        """Split a batch: dedup, verify, and deliver in batch order.

        Delivery order within the batch is the emitter's order; vertices
        whose parents are still missing are parked by the DAG store and
        promoted when the parent arrives (possibly later in the same
        batch).
        """
        delivered = self._delivered
        size = self._size
        for certificate in message.certificates:
            origin = certificate.origin
            if not 0 <= origin < size:
                continue
            if delivered.get(certificate.round, 0) >> origin & 1:
                continue
            if self._verify_certificate(certificate):
                self._deliver(certificate.payload, certificate.round, certificate.origin)

    # -- introspection -----------------------------------------------------------------

    def ack_count(self, round_number: Round) -> int:
        return self._ack_masks.get(round_number, 0).bit_count()

    def is_certified(self, round_number: Round) -> bool:
        return round_number in self._certified


def _payload_digest(payload: Any) -> Any:
    """Best-effort content fingerprint of an arbitrary payload."""
    digest = getattr(payload, "digest", None)
    if digest is not None:
        return digest
    try:
        return digest_of(payload)
    except TypeError:
        return repr(payload)
