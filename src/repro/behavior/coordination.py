"""Coalition adversaries: shared coordination state and coordinated policies.

PR 4's adversaries are strictly per-validator: every policy instance
decides alone, so a group of attackers is just ``k`` independent copies.
Real coalitions do better — they split duties so no single member's
behavioral footprint looks as bad as the joint attack.  This module adds
the coordination channel and the policies that use it:

* :class:`AdversaryCoordinator` — deterministic, per-run shared state.
  One coordinator is created per coalition fault window (by
  :class:`~repro.faults.behavior.BehaviorFault` with ``coordinated=True``)
  and handed to every member policy.  Duty rotation and victim splitting
  are pure functions of (membership, round), so colluders agree on the
  plan without exchanging messages — mirroring how a real coalition would
  pre-agree on a strategy — and the simulation stays deterministic.
* :class:`CoordinatedPolicy` — base class: ``join`` receives the
  coordinator; uncoordinated installs fall back to a solo coalition.
* :class:`ColludingSilencePolicy` — the static victim set is *split*
  round-robin across members: every victim stays starved, but each
  colluder only ever touches ``1/k`` of the victims.
* :class:`AdaptiveSilentFanoutPolicy` — the schedule-aware DoS: each
  round, the duty member re-aims at the leader the *current* schedule is
  about to elect (silence toward it, ack/fetch denial, and — the part
  reputation can see — a withheld vote), so a schedule change does not
  shake the attack off.
* :class:`AdaptiveEquivocationPolicy` — equivocation re-aimed every
  round at the upcoming leaders instead of a fixed victim set.
* :class:`CoalitionGamingPolicy` — the coalition reputation gamer: vote
  withholding is rotated so that, per attacked anchor, exactly one
  member pays the completeness cost while the rest stay spotless.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro.behavior.adversarial import EquivocationPolicy, withhold_leader_parent
from repro.behavior.policy import BehaviorPolicy, full_fanout
from repro.types import Round, ValidatorId, is_anchor_round, next_anchor_round


class AdversaryCoordinator:
    """Deterministic shared state of one colluding coalition.

    Membership is sorted at construction so every member derives the same
    duty roster regardless of installation order.  ``stride`` widens the
    rotation: with ``k`` members and stride ``s``, each block of ``k*s``
    anchor rounds assigns the first ``k`` anchors one duty member each and
    leaves the rest unattacked — the throttle that keeps each member's
    per-epoch deviation small enough to hide in honest noise.
    """

    def __init__(self, members: Sequence[ValidatorId], stride: int = 1) -> None:
        if not members:
            raise ValueError("a coalition needs at least one member")
        if stride < 1:
            raise ValueError("the duty stride must be at least 1")
        self.members: Tuple[ValidatorId, ...] = tuple(sorted(set(members)))
        self.stride = stride
        # Shared scratchpad for policies that want to publish what they
        # are doing (introspection/tests); never read by decision logic.
        self.notes: dict = {}

    def duty_member(self, anchor_round: Round) -> Optional[ValidatorId]:
        """The member on duty for ``anchor_round``, or ``None`` (off-beat)."""
        if not is_anchor_round(anchor_round):
            return None
        slot = (anchor_round // 2) % (len(self.members) * self.stride)
        if slot < len(self.members):
            return self.members[slot]
        return None

    def is_duty(self, member: ValidatorId, anchor_round: Round) -> bool:
        return self.duty_member(anchor_round) == member

    def split_victims(
        self, member: ValidatorId, victims: Sequence[ValidatorId]
    ) -> Tuple[ValidatorId, ...]:
        """The slice of ``victims`` assigned to ``member`` (round-robin).

        Every victim is covered by exactly one member, so the joint
        attack equals the unsplit one while each member's observable
        behavior shrinks by a factor of ``k``.
        """
        if member not in self.members:
            return tuple(victims)
        index = self.members.index(member)
        return tuple(victims[index :: len(self.members)])

    def describe(self) -> str:
        stride = f", stride {self.stride}" if self.stride != 1 else ""
        return f"coalition of {list(self.members)}{stride}"


class CoordinatedPolicy(BehaviorPolicy):
    """A behavior policy that may act as part of a coalition.

    :class:`~repro.faults.behavior.BehaviorFault` calls :meth:`join`
    before installing the policy on its node.  A policy installed without
    a coordinator (plain single-validator fault) lazily builds a solo
    coalition of itself, so every subclass can assume ``self.coordinator``
    exists after :meth:`attach`.
    """

    def __init__(self, stride: int = 1) -> None:
        super().__init__()
        self.coordinator: Optional[AdversaryCoordinator] = None
        self.stride = stride

    def join(self, coordinator: AdversaryCoordinator) -> None:
        self.coordinator = coordinator

    def attach(self, node: Any) -> None:
        super().attach(node)
        if self.coordinator is None:
            self.coordinator = AdversaryCoordinator((node.id,), stride=self.stride)


class ColludingSilencePolicy(CoordinatedPolicy):
    """Coalition-split targeted DoS.

    The full victim set is given to every member; the coordinator assigns
    each member its ``1/k`` slice.  Jointly the coalition starves every
    victim of ``k`` validators' traffic, acks, and fetch service, but no
    single colluder ever denies more than its slice — the footprint a
    per-validator anomaly detector would see shrinks accordingly.
    """

    def __init__(self, victims: Sequence[ValidatorId], stride: int = 1) -> None:
        super().__init__(stride=stride)
        self.victims: Tuple[ValidatorId, ...] = tuple(victims)
        self._assigned: Optional[frozenset] = None

    def attach(self, node: Any) -> None:
        super().attach(node)
        assigned = self.coordinator.split_victims(node.id, self.victims)
        self._assigned = frozenset(assigned) - {node.id}

    def detach(self, node: Any) -> None:
        super().detach(node)
        self._assigned = None

    def plan_fanout(self, message, round_number, recipients):
        return full_fanout(recipients, exclude=self._assigned or ())

    def should_ack(self, origin: ValidatorId, round_number: Round) -> bool:
        return origin not in (self._assigned or ())

    def should_serve_fetch(self, requester: ValidatorId) -> bool:
        return requester not in (self._assigned or ())

    def describe(self) -> str:
        return (
            f"colluding silence towards {list(self.victims)} "
            f"({self.coordinator.describe() if self.coordinator else 'unjoined'})"
        )


class AdaptiveSilentFanoutPolicy(CoordinatedPolicy):
    """Schedule-aware targeted DoS with rotated duty (the ``adaptive-dos`` kind).

    Each anchor round the coordinator puts exactly one member on duty;
    that member re-aims at the leader the *current* schedule elects for
    the round — so the attack follows the victim across schedule changes
    instead of fading when the victim set rotates out.  On duty, a member
    starves the upcoming leader (no own traffic, no acks, no fetch
    service) and, when ``withhold_votes`` is on, omits the vote link for
    the attacked anchor — the deviation the completeness rule is designed
    to see and raw vote counts tend to miss.
    """

    def __init__(
        self,
        stride: int = 3,
        lookahead: int = 1,
        withhold_votes: bool = True,
    ) -> None:
        super().__init__(stride=stride)
        if lookahead < 1:
            raise ValueError("the lookahead must be at least 1")
        self.lookahead = lookahead
        self.withhold_votes = withhold_votes

    # -- duty-target computation ----------------------------------------------

    def _duty_anchors(self, round_number: Round) -> Tuple[Round, ...]:
        """Duty anchor rounds within the lookahead window of ``round_number``."""
        node = self.node
        coordinator = self.coordinator
        if node is None or coordinator is None:
            return ()
        first = next_anchor_round(round_number)
        anchors = []
        for index in range(self.lookahead):
            anchor = first + 2 * index
            if coordinator.is_duty(node.id, anchor):
                anchors.append(anchor)
        return tuple(anchors)

    def _duty_targets(self, round_number: Round) -> frozenset:
        node = self.node
        targets = set()
        for anchor in self._duty_anchors(round_number):
            leader = node.schedule_manager.leader_for_round(anchor)
            if leader != node.id:
                targets.add(leader)
        return frozenset(targets)

    # -- decision points -------------------------------------------------------

    def plan_fanout(self, message, round_number, recipients):
        targets = self._duty_targets(round_number)
        if not targets:
            return None
        return full_fanout(recipients, exclude=targets)

    def should_ack(self, origin: ValidatorId, round_number: Round) -> bool:
        return origin not in self._duty_targets(round_number)

    def should_serve_fetch(self, requester: ValidatorId) -> bool:
        node = self.node
        if node is None:
            return True
        return requester not in self._duty_targets(node.current_round)

    def select_parents(self, round_number, parents):
        if not self.withhold_votes:
            return parents
        previous_round = round_number - 1
        if not is_anchor_round(previous_round):
            return parents
        if not self.coordinator.is_duty(self.node.id, previous_round):
            return parents
        return withhold_leader_parent(self.node, round_number, parents)

    def describe(self) -> str:
        parts = f"adaptive leader DoS (stride {self.stride}, lookahead {self.lookahead}"
        if self.withhold_votes:
            parts += ", vote withholding"
        return parts + ")"


class AdaptiveEquivocationPolicy(EquivocationPolicy):
    """Equivocation re-aimed each round at the upcoming leaders.

    The static :class:`EquivocationPolicy` deceives a fixed victim set;
    this variant recomputes the victims per broadcast as the leaders of
    the next ``lookahead`` anchor rounds of the *current* schedule — the
    validators whose view of this attacker's vertices matters most for
    the next commits.
    """

    def __init__(self, lookahead: int = 2) -> None:
        super().__init__(victims=())
        if lookahead < 1:
            raise ValueError("the lookahead must be at least 1")
        self.lookahead = lookahead

    def plan_fanout(self, message, round_number, recipients):
        node = self.node
        if node is None:
            return None
        manager = node.schedule_manager
        first = next_anchor_round(round_number)
        victims = {
            manager.leader_for_round(first + 2 * index)
            for index in range(self.lookahead)
        }
        self.victims = tuple(sorted(victims - {node.id}))
        if not self.victims:
            return None
        return super().plan_fanout(message, round_number, recipients)

    def describe(self) -> str:
        return f"adaptive equivocation (next {self.lookahead} leaders)"


class CoalitionGamingPolicy(CoordinatedPolicy):
    """The coalition reputation gamer (the ``coalition-gaming`` kind).

    Vote withholding is rotated: per attacked anchor round exactly one
    member omits the vote link while every other member votes honestly.
    With ``k`` members and stride ``s``, each member misses only
    ``1/(k*s)`` of its vote opportunities per epoch — the coalition keeps
    every member's completeness high (and its raw vote count higher
    still), spreading the same total damage the lone gamer concentrates
    on itself.  This is the adversary built to probe the completeness
    rule's limits; the attack x rule matrix records how far it gets.
    """

    def select_parents(self, round_number, parents):
        previous_round = round_number - 1
        if not is_anchor_round(previous_round):
            return parents
        if not self.coordinator.is_duty(self.node.id, previous_round):
            return parents
        return withhold_leader_parent(self.node, round_number, parents)

    def describe(self) -> str:
        return (
            f"coalition reputation gaming "
            f"({self.coordinator.describe() if self.coordinator else 'unjoined'})"
        )
