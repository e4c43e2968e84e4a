"""Output records of the consensus engine."""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.dag.vertex import Vertex
from repro.types import Round, SimTime, ValidatorId


@dataclasses.dataclass(frozen=True)
class OrderedVertex:
    """One vertex in the total order, with its delivery metadata.

    ``a_deliver(v.block, v.round, v.source)`` from Algorithm 2 corresponds
    to one :class:`OrderedVertex` being handed to the application layer.
    """

    vertex: Vertex
    ordered_at: SimTime
    anchor_round: Round
    position: int


@dataclasses.dataclass(frozen=True)
class CommittedSubDag:
    """The result of committing one anchor: the anchor plus the newly
    ordered portion of its causal history."""

    anchor: Vertex
    vertices: Tuple[Vertex, ...]
    committed_at: SimTime
    direct: bool

    @property
    def anchor_round(self) -> Round:
        return self.anchor.round

    @property
    def leader(self) -> ValidatorId:
        return self.anchor.source
