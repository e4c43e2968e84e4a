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

Loss recovery: certificate piggybacking
---------------------------------------

With ``piggyback_certificates`` on, each propose fan-out additionally
relays the certificates this validator collected recently that the
recipient has not *provably* seen (the peer originated it, the peer sent
it to us, or we already piggybacked it to that peer — bookkeeping is
per-peer and bounded by the shared capped-table idiom).  Receivers stash
the relayed certificates in a bounded side table without acting on them;
the table is only consulted at the exact point the node-level
synchronizer would otherwise issue a ``FetchRequest`` round-trip
(:meth:`recover_certificate`).  Loss-free runs never reach that point
(no fetches are issued at all), so piggyback-on runs are byte-identical
to piggyback-off runs by construction; under a loss window the heal
replaces the fetch timeout + round-trip, which is the recovery-latency
win the lossy-recovery bench stage quantifies.  The fan-out itself uses
:meth:`~repro.network.transport.Network.scatter`, which preserves the
RNG draw order and statistics of a plain broadcast exactly.
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
    PiggybackedPropose,
    ProposeMessage,
)
from repro.types import Round, Stake, ValidatorId

# Piggyback bounds.  Only certificates from the last PIGGYBACK_DEPTH
# rounds ride a propose fan-out (older ones are the synchronizer's
# business), at most PIGGYBACK_MAX_PER_ENVELOPE per envelope; the
# relay/seen/pending tables are all capped with the shared
# oldest-half-eviction idiom so per-peer state stays bounded however
# long the run is.
PIGGYBACK_DEPTH = 2
PIGGYBACK_MAX_PER_ENVELOPE = 12
PIGGYBACK_RECENT_LIMIT = 256
PIGGYBACK_SEEN_LIMIT = 512
PIGGYBACK_PENDING_LIMIT = 256
# Verified certificate objects kept per stake vector (a fan-out spans a few rounds).
VERIFIED_CERTIFICATES_LIMIT = 1024


class CertifiedBroadcast(BroadcastProtocol):
    """O(n)-message reliable dissemination with explicit certificates."""

    def __init__(
        self,
        node_id: ValidatorId,
        committee: Committee,
        network: Network,
        on_deliver: DeliveryCallback,
        piggyback_certificates: bool = False,
    ) -> None:
        super().__init__(node_id, committee, network, on_deliver)
        # Relay recently collected certificates on the propose fan-out
        # (loss recovery; see the module docstring).  Off by default: the
        # bookkeeping below stays empty and every path is unchanged.
        self.piggyback_certificates = piggyback_certificates
        # Certificates eligible for relaying, keyed by (origin, round) in
        # collection order (own emissions + verified deliveries).
        self._recent_certificates: Dict[Tuple[ValidatorId, Round], CertificateMessage] = {}
        # Per-peer evidence table: keys this peer has provably seen (it
        # sent us the certificate) or we already piggybacked to it.  A
        # dict-as-ordered-set so the capped-table eviction applies.
        self._peer_seen: Dict[ValidatorId, Dict[Tuple[ValidatorId, Round], None]] = {}
        # Receiver-side stash of relayed certificates, consulted only by
        # :meth:`recover_certificate` (the synchronizer's fetch trigger).
        self._pending_certificates: Dict[Tuple[ValidatorId, Round], CertificateMessage] = {}
        # Recovery statistics (surfaced by the runner's counter snapshot).
        self.certificates_piggybacked = 0
        self.certificates_healed = 0
        # Acks received for broadcasts we originated: round -> voter
        # bitmask (bit ``v`` set iff validator ``v`` acked), with the
        # voter set's stake accumulated incrementally so each ack costs
        # O(1).  The mask's ascending bit order *is* the sorted voter
        # order, so the certificate's signers tuple is read straight off
        # it — byte-identical to the old ``tuple(sorted(voter_set))``.
        self._ack_masks: Dict[Round, int] = {}
        self._ack_stake: Dict[Round, Stake] = {}
        # Payloads of our own in-flight broadcasts, keyed by round.
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
            PiggybackedPropose: self._handle_piggybacked_propose,
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
        if self.piggyback_certificates:
            self._fanout_piggybacked(message, round_number)
        else:
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

    # -- certificate piggybacking (loss recovery) ---------------------------------

    def _fanout_piggybacked(self, message: ProposeMessage, round_number: Round) -> None:
        """Propose fan-out with per-peer certificate deltas attached.

        Peers with an empty delta receive the plain proposal; behavior
        policies bypass piggybacking entirely (their fan-out plans are
        defined over the plain propose path).  The scatter call preserves
        the RNG/event/statistics sequence of a plain broadcast exactly.
        """
        policy = self.policy
        if policy is not None and not policy.transparent:
            self._fanout(message, round_number)
            return
        envelopes = []
        for peer in self.committee.validators:
            delta = self._select_piggyback(peer, round_number)
            if delta:
                self.certificates_piggybacked += len(delta)
                envelopes.append(
                    (
                        peer,
                        PiggybackedPropose(
                            origin=message.origin,
                            round=message.round,
                            digest=message.digest,
                            payload=message.payload,
                            certificates=delta,
                        ),
                    )
                )
            else:
                envelopes.append((peer, message))
        self.network.scatter(self.node_id, envelopes)

    def _select_piggyback(
        self, peer: ValidatorId, round_number: Round
    ) -> Tuple[CertificateMessage, ...]:
        """The certificate delta to relay to ``peer`` with this proposal.

        A certificate is excluded when the peer provably has it (it is
        the origin, or it sent the certificate to us) or when we already
        piggybacked it to that peer; everything selected is marked as
        sent so no certificate rides to the same peer twice.  Only the
        last :data:`PIGGYBACK_DEPTH` rounds are eligible, at most
        :data:`PIGGYBACK_MAX_PER_ENVELOPE` per envelope.
        """
        if peer == self.node_id:
            return ()
        horizon = round_number - PIGGYBACK_DEPTH
        seen = self._peer_seen.get(peer)
        selected = []
        for key, certificate in self._recent_certificates.items():
            if certificate.round < horizon or key[0] == peer:
                continue
            if seen is not None and key in seen:
                continue
            selected.append(certificate)
            if len(selected) >= PIGGYBACK_MAX_PER_ENVELOPE:
                break
        if selected:
            if seen is None:
                seen = self._peer_seen[peer] = {}
            for certificate in selected:
                evict_oldest_half(seen, PIGGYBACK_SEEN_LIMIT)
                seen[(certificate.origin, certificate.round)] = None
        return tuple(selected)

    def _record_recent(self, certificate: CertificateMessage) -> None:
        """Remember a collected certificate as a piggyback candidate."""
        key = (certificate.origin, certificate.round)
        recent = self._recent_certificates
        if key not in recent:
            evict_oldest_half(recent, PIGGYBACK_RECENT_LIMIT)
            recent[key] = certificate

    def _note_peer_has(self, peer: ValidatorId, key: Tuple[ValidatorId, Round]) -> None:
        """Record evidence that ``peer`` possesses certificate ``key``."""
        seen = self._peer_seen.get(peer)
        if seen is None:
            seen = self._peer_seen[peer] = {}
        else:
            evict_oldest_half(seen, PIGGYBACK_SEEN_LIMIT)
        seen[key] = None

    def _note_peer_edges(self, peer: ValidatorId, payload: Any) -> None:
        """A proposal's parent edges are certificates its sender holds.

        DAG vertices only reference certified parents, so a proposal from
        ``peer`` at round ``r`` proves the peer possesses the certificate
        of every edge it cites — the strongest (and cheapest) pruning
        evidence available: it retires most of a round's certificates
        from the peer's piggyback delta one round after they circulate.
        Edges are visited in sorted order so the seen-table's insertion
        (and hence eviction) order never depends on set iteration order.
        """
        edges = getattr(payload, "edges", None)
        if not edges:
            return
        for edge in sorted(edges):
            self._note_peer_has(peer, (edge.source, edge.round))

    def _handle_piggybacked_propose(
        self, sender: ValidatorId, message: PiggybackedPropose
    ) -> None:
        """Stash relayed certificates, then process the proposal itself.

        The stash is deliberately passive: nothing is verified or
        delivered here, so receiving a piggybacked envelope is
        indistinguishable from receiving the plain proposal until the
        synchronizer actually misses a certificate.  Duplicates (already
        delivered, already stashed) are ignored idempotently; hostile
        contents sit inert until :meth:`recover_certificate` verifies
        them.
        """
        if sender == message.origin and self.piggyback_certificates:
            size = self._size
            pending = self._pending_certificates
            for certificate in message.certificates:
                origin = certificate.origin
                if not 0 <= origin < size:
                    continue
                key = (origin, certificate.round)
                self._note_peer_has(sender, key)
                if not self.has_delivered(origin, certificate.round) and key not in pending:
                    evict_oldest_half(pending, PIGGYBACK_PENDING_LIMIT)
                    pending[key] = certificate
        self._handle_propose(sender, message)

    def recover_certificate(self, origin: ValidatorId, round_number: Round) -> bool:
        """Heal a missing ``(origin, round)`` certificate from the stash.

        Called by the node-level synchronizer immediately before it would
        issue a :class:`~repro.node.messages.FetchRequest` for the vertex.
        Returns ``True`` when the fetch is unnecessary: the certificate
        was stashed by an earlier piggybacked fan-out and verifies (it is
        delivered on the spot), or the payload was already delivered.  An
        invalid stashed certificate is discarded and the fetch proceeds.
        """
        certificate = self._pending_certificates.pop((origin, round_number), None)
        if certificate is None:
            return False
        if self.has_delivered(origin, round_number):
            return True
        if not self._verify_certificate(certificate):
            return False
        self.certificates_healed += 1
        if self._tracing:
            self._tracer.emit(
                "certificate_healed",
                node=self.node_id,
                round=round_number,
                origin=origin,
            )
        self._record_recent(certificate)
        self._deliver(certificate.payload, certificate.round, certificate.origin)
        return True

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
        if self.piggyback_certificates:
            self._note_peer_edges(sender, message.payload)
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
            if self.piggyback_certificates:
                self._record_recent(certificate)
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
        evict_oldest_half(verified, VERIFIED_CERTIFICATES_LIMIT)
        verified[id(message)] = message
        return True

    def _handle_certificate(self, sender: ValidatorId, message: CertificateMessage) -> None:
        if not 0 <= message.origin < self._size:
            return
        if self.piggyback_certificates:
            # The sender provably has this certificate; remember both the
            # evidence and the certificate itself as a relay candidate.
            self._note_peer_has(sender, (message.origin, message.round))
        if self.has_delivered(message.origin, message.round):
            # Duplicate delivery is a no-op either way; skip verification.
            return
        if self._verify_certificate(message):
            if self.piggyback_certificates:
                self._record_recent(message)
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
        piggyback = self.piggyback_certificates
        for certificate in message.certificates:
            origin = certificate.origin
            if not 0 <= origin < size:
                continue
            if piggyback:
                self._note_peer_has(sender, (origin, certificate.round))
            if delivered.get(certificate.round, 0) >> origin & 1:
                continue
            if self._verify_certificate(certificate):
                if piggyback:
                    self._record_recent(certificate)
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
