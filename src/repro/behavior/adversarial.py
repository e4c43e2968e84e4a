"""The curated adversarial policies.

Each policy bends a small, named subset of the decision points in
:class:`~repro.behavior.policy.BehaviorPolicy` and leaves every other
decision honest, so attacks compose out of primitives instead of
monkey-patches:

* :class:`VoteWithholdingPolicy` — the paper's canonical Byzantine
  strategy: omit the parent link to the previous round's leader (the
  "vote"), costing the leader its commit and the withholder its
  reputation under vote-based scoring.
* :class:`EquivocationPolicy` — propose conflicting vertices to disjoint
  recipient sets.  The certified broadcast's quorum intersection keeps
  the conflicting payload from certifying, but every deceived validator
  has acknowledged the wrong digest and refuses to ack the real one, so
  the equivocator gambles its own certification on the honest majority.
* :class:`SilentFanoutPolicy` — a targeted DoS: drop all own traffic to
  a victim subset, refuse to ack the victims' proposals, and ignore
  their fetch requests.  The victims must assemble the DAG through
  third parties, inflating their latency without any global fault.
* :class:`LazyLeaderPolicy` — equivocation of *timing*: behave perfectly
  except in the rounds where the schedule makes this validator the
  leader, and then sit on the proposal just long enough for honest
  validators to time out.  Leader-based scoring sees skipped anchors;
  vote-based scoring sees nothing wrong.
* :class:`ReputationGamingPolicy` — an attack on the scoring rule
  itself: withhold votes like :class:`VoteWithholdingPolicy`, but turn
  honest inside a window of rounds around the validator's own leader
  slots, harvesting just enough reputation to stay out of (or quickly
  return from) the demoted set while still damaging every leader whose
  slot is far from its own.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.behavior.policy import (
    BehaviorPolicy,
    FanoutPlan,
    FanoutSend,
    full_fanout,
)
from repro.dag.vertex import Vertex, make_vertex
from repro.rbc.messages import ProposeMessage
from repro.types import Round, SimTime, ValidatorId, VertexId, is_anchor_round


def withhold_leader_parent(node: Any, round_number: Round, parents: List[VertexId]) -> List[VertexId]:
    """Drop the previous round's leader from ``parents`` (quorum permitting).

    The single definition of the withholding move, shared by
    :class:`VoteWithholdingPolicy` and :class:`ReputationGamingPolicy`.
    The adversary never drops below the 2f+1 quorum the
    vertex structure requires: a structurally invalid vertex would be
    rejected by every honest recipient, which only hurts the adversary.
    """
    previous_round = round_number - 1
    if not is_anchor_round(previous_round):
        return parents
    leader = node.schedule_manager.leader_for_round(previous_round)
    leader_vertex = VertexId(round=previous_round, source=leader)
    filtered = [parent for parent in parents if parent != leader_vertex]
    sources = {parent.source for parent in filtered}
    if node.committee.has_quorum(sources):
        return filtered
    return parents


class VoteWithholdingPolicy(BehaviorPolicy):
    """Withhold the vote (parent link) for every leader."""

    def select_parents(self, round_number: Round, parents: List[VertexId]) -> List[VertexId]:
        return withhold_leader_parent(self.node, round_number, parents)

    def describe(self) -> str:
        return "vote withholding"


class EquivocationPolicy(BehaviorPolicy):
    """Send a conflicting own proposal to ``victims``, the real one to the rest.

    The conflicting vertex differs in content (an emptied block, or one
    dropped parent when the block is already empty) but shares the
    ``(round, source)`` identity — textbook equivocation.  Victims
    acknowledge the conflicting digest first and, by the broadcast
    layer's equivocation guard, never acknowledge the real one; the
    attack succeeds silently while the remaining honest stake covers a
    quorum and starves the equivocator of its own certificates once the
    victim set grows past ``f``.
    """

    def __init__(self, victims: Sequence[ValidatorId]) -> None:
        super().__init__()
        self.victims: Tuple[ValidatorId, ...] = tuple(victims)

    def plan_fanout(
        self,
        message: Any,
        round_number: Round,
        recipients: Sequence[ValidatorId],
    ) -> Optional[FanoutPlan]:
        if not isinstance(message, ProposeMessage) or not isinstance(message.payload, Vertex):
            return None
        twin = self._conflicting_vertex(message.payload)
        if twin is None:
            return None
        node_id = self.node.id
        victims = frozenset(self.victims) - {node_id}
        if not victims:
            return None
        return [
            FanoutSend(recipient, payload=twin if recipient in victims else None)
            for recipient in recipients
        ]

    def _conflicting_vertex(self, vertex: Vertex) -> Optional[Vertex]:
        """A same-identity vertex with a different content digest."""
        if vertex.round == 0:
            return None
        if vertex.block:
            # The content digest binds the block length, so an emptied
            # block is a genuine conflict even with identical edges.
            return make_vertex(
                vertex.round,
                vertex.source,
                edges=vertex.edges,
                block=(),
                created_at=vertex.created_at,
            )
        edges = vertex.edges
        for index in range(len(edges) - 1, -1, -1):
            remaining = edges[:index] + edges[index + 1 :]
            if self.node.committee.has_quorum({edge.source for edge in remaining}):
                return make_vertex(
                    vertex.round,
                    vertex.source,
                    edges=remaining,
                    block=(),
                    created_at=vertex.created_at,
                )
        # An empty block over a bare quorum leaves nothing to vary.
        return None

    def describe(self) -> str:
        return f"equivocation against {list(self.victims)}"


class SilentFanoutPolicy(BehaviorPolicy):
    """Starve ``targets``: no own traffic to them, no acks or fetch service for them."""

    def __init__(self, targets: Sequence[ValidatorId]) -> None:
        super().__init__()
        self.targets: Tuple[ValidatorId, ...] = tuple(targets)
        self._target_set = frozenset(targets)

    def plan_fanout(
        self,
        message: Any,
        round_number: Round,
        recipients: Sequence[ValidatorId],
    ) -> Optional[FanoutPlan]:
        return full_fanout(recipients, exclude=self._target_set - {self.node.id})

    def should_ack(self, origin: ValidatorId, round_number: Round) -> bool:
        return origin not in self._target_set

    def should_serve_fetch(self, requester: ValidatorId) -> bool:
        return requester not in self._target_set

    def describe(self) -> str:
        return f"silent fan-out towards {list(self.targets)}"


class LazyLeaderPolicy(BehaviorPolicy):
    """Delay only the own proposals of rounds where this validator leads."""

    def __init__(self, delay: SimTime = 2.5) -> None:
        super().__init__()
        self.delay = delay

    def proposal_delay(self, round_number: Round) -> SimTime:
        node = self.node
        if not is_anchor_round(round_number):
            return 0.0
        if node.schedule_manager.leader_for_round(round_number) != node.id:
            return 0.0
        return self.delay

    def describe(self) -> str:
        return f"lazy leader (+{self.delay:.2f}s on own leader slots)"


class ReputationGamingPolicy(BehaviorPolicy):
    """Withhold votes except within ``window`` rounds of an own leader slot.

    The naive withholder scores zero under vote-based rules and is
    demoted at the first schedule change; this adversary banks honest
    votes exactly when its own slots (and the commits that score them)
    are near, so each scoring rule reads it as merely mediocre and
    reacts more slowly — the qualitative gap the paper's discussion of
    scoring robustness predicts.
    """

    def __init__(self, window: int = 6) -> None:
        super().__init__()
        if window < 0:
            raise ValueError("the honest window must be non-negative")
        self.window = window

    def _near_own_slot(self, round_number: Round) -> bool:
        # The window is anchored on the *initial* (stake-proportional)
        # schedule, not the active one: schedule changes always apply the
        # reputation swap to the base slot assignment, so this is where
        # the adversary's slots return the moment it escapes the demoted
        # set.  Anchoring on the active schedule instead would degenerate
        # into full withholding after the first demotion (no slots -> no
        # honest window -> zero score forever).
        node = self.node
        base = node.schedule_manager.history[0]
        first = max(base.initial_round, 2, round_number - self.window)
        if first % 2:
            first += 1
        for anchor in range(first, round_number + self.window + 1, 2):
            if base.leader_for_round(anchor) == node.id:
                return True
        return False

    def select_parents(self, round_number: Round, parents: List[VertexId]) -> List[VertexId]:
        if self._near_own_slot(round_number):
            return parents
        return withhold_leader_parent(self.node, round_number, parents)

    def describe(self) -> str:
        return f"reputation gaming (honest within {self.window} rounds of own slots)"
