"""Node-level wire messages (outside the broadcast layer).

The synchronizer messages mirror Narwhal's certificate fetcher: a
validator that receives a vertex referencing parents it has not seen asks
the vertex's source (which, having produced the child, must hold the
parents) for the missing vertices, and tells it what it already holds —
its garbage-collection horizon plus one source bitmask per stored round.
The responder walks down from the requested vertices and stops at every
vertex the requester holds (causal completeness: the requester then has
everything beneath it) and at the requester's horizon, so the response
is exactly the part of the requested vertices' causal history the
requester lacks: one vertex for one lost certificate, the whole history
for a recovering validator that holds nothing.  When the requester's
frontier lies below the responder's own horizon the missing history has
been pruned, and the response also carries a consensus snapshot, which
models the production system's checkpoint-based state sync.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, Optional, Tuple

from repro.dag.vertex import Vertex
from repro.schedule.base import LeaderSchedule
from repro.types import Round, ValidatorId, VertexId


@dataclasses.dataclass(frozen=True)
class ConsensusSnapshot:
    """A summary of a validator's committed state, used for state sync.

    In production this information is carried by certified checkpoints; the
    simulation treats the serving peer's snapshot as trustworthy, which is
    sound in crash-fault executions (the experiments that exercise state
    sync) because the serving peer is honest.
    """

    last_ordered_anchor_round: Round
    gc_round: Round
    schedules: Tuple[LeaderSchedule, ...]
    scores: Dict[ValidatorId, float]
    commits_in_epoch: int
    ordered_vertices: FrozenSet[VertexId]
    # Vote accounting of ratio-style scoring rules (cast counts, expected
    # counts, ordered-leader rounds), or ``None`` under the count-based
    # rules — see ``HammerHeadScheduleManager.vote_accounting_snapshot``.
    vote_accounting: Optional[tuple] = None


@dataclasses.dataclass(frozen=True)
class FetchRequest:
    """Ask a peer for ``missing`` and whatever of their history we lack.

    ``horizon`` is the requester's garbage-collection horizon (nothing
    below it is wanted) and ``held`` its DAG frontier: ascending
    ``(round, mask)`` pairs where bit ``s`` of ``mask`` says the
    requester's DAG — not its parked buffer — holds the round's vertex
    from validator ``s`` (``DagStore.held_sources``).  The defaults
    describe a requester that holds nothing.
    """

    requester: ValidatorId
    missing: Tuple[VertexId, ...]
    horizon: Round = 0
    held: Tuple[Tuple[Round, int], ...] = ()


@dataclasses.dataclass(frozen=True)
class FetchResponse:
    """Reply to a :class:`FetchRequest` with the vertices the peer holds.

    ``responder_gc_round`` is the responder's garbage-collection horizon:
    rounds below it have been pruned and can never be served.  A requester
    that needs older history falls back to state sync (see
    ``BullsharkConsensus.fast_forward``) from ``snapshot``, which the
    responder attaches only when the request's frontier ends below that
    horizon.
    """

    responder: ValidatorId
    vertices: Tuple[Vertex, ...]
    responder_gc_round: int = 0
    snapshot: Optional[ConsensusSnapshot] = None
