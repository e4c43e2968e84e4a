"""Fault plan infrastructure."""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.committee import Committee
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.node.validator import ValidatorNode
from repro.types import ValidatorId


def tail_validators(
    committee: Committee,
    count: int,
    protect: Sequence[ValidatorId] = (0,),
) -> Tuple[ValidatorId, ...]:
    """The ``count`` highest-indexed validators, observer protected.

    The single definition of the benchmarking convention every selector in
    this package follows (crash-last-f, degrade-fraction, isolate-tail,
    and the scenario compiler): pick from the top of the index range,
    never selecting validators in ``protect``.
    """
    candidates = [
        validator for validator in reversed(committee.validators) if validator not in protect
    ]
    return tuple(candidates[:count])


def head_validators(
    committee: Committee,
    count: int,
    protect: Sequence[ValidatorId] = (0,),
) -> Tuple[ValidatorId, ...]:
    """The ``count`` lowest-indexed validators, observer protected.

    The mirror convention of :func:`tail_validators`, used to pick the
    *victims* of targeted behaviors (equivocation, selective silence):
    attackers come from the tail, victims from the head, so the two sets
    never overlap until they meet in the middle.
    """
    candidates = [
        validator for validator in committee.validators if validator not in protect
    ]
    return tuple(candidates[:count])


class FaultPlan:
    """One fault affecting one or more validators.

    Subclasses implement :meth:`schedule`, which registers the virtual-time
    events that enact the fault, and :meth:`describe`; those that touch
    validators name them in ``affected_validators()`` (see
    :meth:`FaultInjector.affected_validators`).
    """

    #: ``schedule(simulator, network, nodes)``.
    schedule: Callable[[Simulator, Network, Dict[ValidatorId, ValidatorNode]], None]
    #: One line naming the fault.
    describe: Callable[[], str]


class FaultInjector:
    """Applies a collection of fault plans to a running simulation."""

    def __init__(self, plans: Sequence[FaultPlan] = ()) -> None:
        self.plans: List[FaultPlan] = list(plans)

    def add(self, plan: FaultPlan) -> None:
        self.plans.append(plan)

    def schedule_all(
        self,
        simulator: Simulator,
        network: Network,
        nodes: Dict[ValidatorId, ValidatorNode],
    ) -> None:
        for plan in self.plans:
            plan.schedule(simulator, network, nodes)

    def affected_validators(self) -> List[ValidatorId]:
        affected: List[ValidatorId] = []
        for plan in self.plans:
            # The result's faulty set is built from this on every run, so
            # a plan that implements only ``schedule`` (a fabric-wide one,
            # a test's) must not crash it: fall back to its ``validators``
            # field, empty when it has none.
            selector = getattr(plan, "affected_validators", None)
            validators = selector() if selector is not None else getattr(plan, "validators", ())
            for validator in validators:
                if validator not in affected:
                    affected.append(validator)
        return affected
