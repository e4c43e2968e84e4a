"""Wire messages of the reliable broadcast layer.

The message classes are plain (non-frozen) dataclasses: tens of
thousands are created per simulated second and the frozen-dataclass
``object.__setattr__`` per field dominated their construction cost.
Protocol code treats them as immutable by convention (one instance fans
out to every recipient).  The convention carries weight:
``CertifiedBroadcast._verify_certificate`` remembers that a
:class:`CertificateMessage` *object* verified and answers later
recipients by identity, so setting ``signers``, ``payload`` or ``digest``
on a built message would be accepted unchecked — build a new one
(``dataclasses.replace``) instead.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Tuple

from repro.crypto.hashing import Digest
from repro.types import Round, ValidatorId


@dataclasses.dataclass(unsafe_hash=True)
class BroadcastMessage:
    """Base class for broadcast-layer messages (used for dispatch)."""

    origin: ValidatorId
    round: Round
    digest: Digest


@dataclasses.dataclass(unsafe_hash=True)
class ProposeMessage(BroadcastMessage):
    """The original payload sent by the broadcaster (certified protocol)."""

    # The broadcast layer is payload-generic; every production payload
    # is a Vertex, whose ``digest`` is its content fingerprint.
    payload: Any = None


@dataclasses.dataclass(unsafe_hash=True)
class AckMessage(BroadcastMessage):
    """A signed acknowledgement of a proposal, sent back to the broadcaster."""

    voter: ValidatorId = -1


@dataclasses.dataclass(unsafe_hash=True)
class CertificateMessage(BroadcastMessage):
    """A 2f+1 quorum of acknowledgements; carries the payload for delivery."""

    # Payload-generic (see ProposeMessage.payload).
    payload: Any = None
    signers: Tuple[ValidatorId, ...] = ()


@dataclasses.dataclass(unsafe_hash=True)
class CertificateBatch(BroadcastMessage):
    """All certificates a validator emits for a round, in one envelope.

    The certified protocol fans every certificate out to every peer; at
    committee size ``n`` that is ``O(n^2)`` transport sends per round.
    Batching coalesces the certificates one validator emits for a round
    into a single send per peer; the receiver splits the envelope,
    deduplicates against already-delivered ``(origin, round)`` pairs, and
    verifies the remainder in one aggregate pass (see
    :meth:`~repro.rbc.certified.CertifiedBroadcast._handle_certificates`).

    ``origin``/``round``/``digest`` describe the *emitter* and the round
    the batch belongs to; the certificates inside carry their own origins,
    rounds, and quorum signer tuples, so splitting a batch loses no
    verification information.
    """

    certificates: Tuple["CertificateMessage", ...] = ()
