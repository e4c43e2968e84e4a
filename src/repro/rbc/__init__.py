"""Reliable broadcast (Definition 1 of the paper).

:class:`CertifiedBroadcast` is the Narwhal-style dissemination used by the
production system: the proposer sends the payload to everyone, collects a
2f+1 quorum of signed acknowledgements, and distributes the resulting
certificate.  It uses O(n) messages per broadcast, which keeps
large-committee simulations tractable, and provides the guarantees of
Definition 1 when combined with the node-level synchronizer (vertices
referenced by later vertices are fetched on demand).
"""

from repro.rbc.messages import (
    AckMessage,
    BroadcastMessage,
    CertificateMessage,
    ProposeMessage,
)
from repro.rbc.certified import CertifiedBroadcast, Delivery

__all__ = [
    "Delivery",
    "CertifiedBroadcast",
    "BroadcastMessage",
    "ProposeMessage",
    "AckMessage",
    "CertificateMessage",
]
