"""The behavior-policy interface: every validator decision an adversary can bend.

A :class:`BehaviorPolicy` collects the validator's behavioral decision
points behind one composable object:

* **parent selection** — which previous-round vertices a proposal links to
  (:meth:`select_parents`; vote withholding lives here);
* **proposal timing** — how long to sit on an own proposal before
  broadcasting it (:meth:`proposal_delay`; the lazy leader lives here);
* **per-recipient fan-out** — whether each peer receives a broadcast, with
  what payload, and after what extra delay (:meth:`plan_fanout`;
  equivocation and selective silence live here);
* **ack/certify participation** — whether to acknowledge another
  validator's proposal (:meth:`should_ack`);
* **fetch service** — whether to answer a peer's synchronizer request
  (:meth:`should_serve_fetch`).

The honest path is a fast path, not a code path: :class:`HonestPolicy`
sets ``transparent = True`` and every decision point guards itself with a
single attribute check before calling into the policy, so an honest run
executes exactly the pre-policy instruction sequence — same RNG draws,
same event order, byte-identical ordering digests (pinned by
``tests/integration/test_behavior_differential.py``).

Policies are installed per node with :meth:`ValidatorNode.set_behavior`
(usually via :class:`repro.faults.behavior.BehaviorFault`, which puts them
on a timeline).  A policy instance is bound to exactly one node via
:meth:`attach`; hooks may read any node state (schedule manager, DAG,
committee) but must only *decide* — mutating protocol state from a hook is
the one thing the interface rules out.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence

from repro.types import Round, SimTime, ValidatorId, VertexId


class FanoutSend:
    """One per-recipient directive of a fan-out plan.

    ``payload`` replaces the broadcast payload for this recipient (the
    broadcast layer re-derives the wire digest, so a substituted payload
    is a well-formed equivocation, not a corruption); ``None`` keeps the
    original message.  ``delay`` holds the message back for that many
    seconds of virtual time before it enters the transport.  Dropping a
    recipient is expressed by omitting it from the plan.
    """

    __slots__ = ("recipient", "payload", "delay")

    def __init__(
        self,
        recipient: ValidatorId,
        payload: Any = None,
        delay: SimTime = 0.0,
    ) -> None:
        self.recipient = recipient
        self.payload = payload
        self.delay = delay


# A fan-out plan: one directive per recipient that should receive the
# message.  ``None`` (from plan_fanout) means "fan out normally".
FanoutPlan = List[FanoutSend]


class BehaviorPolicy:
    """Base class of validator behavior policies.

    Subclasses override the decision points they bend and leave the rest
    honest.  The default implementation of every hook is the honest
    decision, so an adversarial policy is exactly the set of deviations
    it encodes.
    """

    #: ``True`` marks the policy as behaviorally inert: decision points
    #: skip the hook calls entirely, keeping the honest hot path
    #: instruction-identical to a build without the policy layer.
    transparent = False

    def __init__(self) -> None:
        self.node = None  # type: Optional[Any]

    # -- lifecycle -----------------------------------------------------------

    def attach(self, node: Any) -> None:
        """Bind the policy to the node it now governs."""
        self.node = node

    def detach(self, node: Any) -> None:
        """Unbind from ``node`` (the node is reverting to honesty)."""
        self.node = None

    # -- decision points -----------------------------------------------------

    def select_parents(
        self, round_number: Round, parents: List[VertexId]
    ) -> List[VertexId]:
        """Choose the parent edges of the proposal for ``round_number``."""
        return parents

    def proposal_delay(self, round_number: Round) -> SimTime:
        """Extra virtual time to sit on the own proposal of ``round_number``."""
        return 0.0

    def plan_fanout(
        self,
        message: Any,
        round_number: Round,
        recipients: Sequence[ValidatorId],
    ) -> Optional[FanoutPlan]:
        """Per-recipient plan for an own broadcast, or ``None`` for normal fan-out."""
        return None

    def should_ack(self, origin: ValidatorId, round_number: Round) -> bool:
        """Acknowledge ``origin``'s proposal for ``round_number``?"""
        return True

    def should_serve_fetch(self, requester: ValidatorId) -> bool:
        """Answer ``requester``'s synchronizer fetch request?"""
        return True


class HonestPolicy(BehaviorPolicy):
    """The protocol-faithful default: every decision is the honest one.

    Marked ``transparent`` so decision points skip the hook calls; an
    honest run is byte-identical to one without the policy layer.
    """

    transparent = True


#: Shared honest instance installed on every node at construction.  The
#: policy is stateless (``attach`` stores the node only for symmetry), so
#: one instance can serve a whole committee.
HONEST = HonestPolicy()


def full_fanout(
    recipients: Iterable[ValidatorId],
    exclude: Iterable[ValidatorId] = (),
) -> FanoutPlan:
    """A plan sending the original message to everyone except ``exclude``."""
    banned = frozenset(exclude)
    return [
        FanoutSend(recipient)
        for recipient in recipients
        if recipient not in banned
    ]
