"""DAG vertices (Algorithm 1 of the paper).

A vertex carries: the round it belongs to, the validator that broadcast
it, a block of transactions, and edges to at least ``2f+1`` (by stake)
vertices of the previous round.  Honest validators produce at most one
vertex per round; the reliable-broadcast layer prevents equivocation from
being accepted.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.committee import Committee
from repro.crypto.hashing import Digest, evict_oldest_half, vertex_digest
from repro.errors import DagError
from repro.types import Round, SimTime, ValidatorId, VertexId

# A block is an immutable sequence of opaque transactions: a tuple, or a
# sequence that declares itself ``sealed``.  The workload layer fills it
# with Transaction objects; the DAG and consensus layers never look inside.
Block = Sequence[Any]

# Per-process intern tables.  Every recipient of a broadcast rebuilds the
# same vertex, so an ``n``-validator run otherwise holds ``n`` equal
# ``VertexId`` tuples and ``n`` equal digest byte strings per vertex;
# interning collapses them to one canonical object each (committee-100
# keeps ~100x fewer of both alive).  Both tables are value-keyed, so a
# hit can never change what any consumer observes — only object
# identity — and both are capped with the same oldest-half eviction the
# digest memos use.
_VERTEX_ID_INTERN: Dict[Tuple[Round, ValidatorId], VertexId] = {}
_DIGEST_INTERN: Dict[Digest, Digest] = {}
_INTERN_LIMIT = 1 << 17


def interned_vertex_id(round_number: Round, source: ValidatorId) -> VertexId:
    """The canonical ``VertexId`` for ``(round, source)`` in this process."""
    key = (round_number, source)
    vertex_id = _VERTEX_ID_INTERN.get(key)
    if vertex_id is None:
        evict_oldest_half(_VERTEX_ID_INTERN, _INTERN_LIMIT)
        vertex_id = VertexId(round=round_number, source=source)
        _VERTEX_ID_INTERN[key] = vertex_id
    return vertex_id


def intern_table_sizes() -> Dict[str, int]:
    """Current intern-table sizes (observability only, never digested)."""
    return {
        "vertex_id": len(_VERTEX_ID_INTERN),
        "digest": len(_DIGEST_INTERN),
    }


@dataclasses.dataclass(frozen=True, slots=True)
class Vertex:
    """A vertex of the DAG (``struct vertex`` in Algorithm 1)."""

    id: VertexId
    # The parent ids, ascending and duplicate-free whatever iterable the
    # constructor was given (``__post_init__`` canonicalises it).  A tuple
    # is a fifth of a frozenset's size, and its order is the one both the
    # content digest and the wire encoding use.
    edges: Tuple[VertexId, ...]
    block: Block
    digest: Digest
    created_at: SimTime = 0.0

    # ``round`` and ``source`` mirror the id's fields as plain instance
    # attributes (set in ``__post_init__``): they are read hundreds of
    # thousands of times per run, and a property accessor is a Python
    # call while an instance attribute is a C-level lookup.
    round: Round = dataclasses.field(init=False, compare=False, repr=False)
    source: ValidatorId = dataclasses.field(init=False, compare=False, repr=False)
    # Bitmask of the parent sources: bit ``s`` is set iff this vertex has
    # an edge to a vertex from validator ``s``.  ``make_vertex`` only
    # builds vertices whose edges all point to the previous round; a
    # decoded vertex can name any round, so the mask stands for ``edges``
    # (one AND instead of a scan of the edges in the vote checks, one
    # AND-NOT instead of a lookup per parent in ``missing_parents``) only
    # where ``edges_adjacent`` says every edge names ``round - 1``.
    edge_mask: int = dataclasses.field(init=False, compare=False, repr=False)
    edges_adjacent: bool = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        previous = self.id.round - 1
        object.__setattr__(self, "round", self.id.round)
        object.__setattr__(self, "source", self.id.source)
        edges: List[VertexId] = []
        last = None
        mask = 0
        adjacent = True
        for edge in sorted(self.edges):
            if edge == last:
                continue
            last = edge
            edges.append(edge)
            mask |= 1 << edge.source
            if edge.round != previous:
                adjacent = False
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "edge_mask", mask)
        object.__setattr__(self, "edges_adjacent", adjacent)


def make_vertex(
    round_number: Round,
    source: ValidatorId,
    edges: Iterable[VertexId],
    block: Sequence[Any] = (),
    created_at: SimTime = 0.0,
) -> Vertex:
    """Construct a vertex, validating its structural invariants.

    Edges must all point to the immediately preceding round; round-0
    (genesis) vertices carry no edges.
    """
    if round_number < 0:
        raise DagError("rounds are non-negative")
    vertex = Vertex(
        id=interned_vertex_id(round_number, source),
        edges=edges,
        block=block if getattr(block, "sealed", False) else tuple(block),
        digest=b"",
        created_at=created_at,
    )
    if round_number == 0 and vertex.edges:
        raise DagError("genesis vertices must not reference parents")
    if not vertex.edges_adjacent:
        stray = next(edge for edge in vertex.edges if edge.round != round_number - 1)
        raise DagError(
            f"vertex at round {round_number} references parent at round "
            f"{stray.round}; edges must point to the previous round"
        )
    digest = vertex_digest(round_number, source, vertex.edges, len(block))
    evict_oldest_half(_DIGEST_INTERN, _INTERN_LIMIT)
    # The digest is a function of the canonical edges, so it is filled
    # in once the vertex has built them.
    object.__setattr__(vertex, "digest", _DIGEST_INTERN.setdefault(digest, digest))
    return vertex


def genesis_vertices(committee: Committee) -> List[Vertex]:
    """Round-0 vertices, one per validator, shared by every node at start-up.

    Vertices are immutable, so the list is memoized on the committee:
    every node of an ``n``-validator simulation requests the same ``n``
    genesis vertices, and recomputing their digests was ``O(n^2)`` hash
    work at start-up.
    """
    cached = getattr(committee, "_genesis_vertices_cache", None)
    if cached is None:
        cached = [
            make_vertex(0, validator, edges=(), block=())
            for validator in committee.validators
        ]
        committee._genesis_vertices_cache = cached
    return list(cached)


def check_edge_quorum(vertex: Vertex, committee: Committee) -> bool:
    """``True`` when the vertex's edges into the previous round cover a
    2f+1 stake quorum.

    Genesis vertices trivially satisfy the requirement.  Only round
    ``r-1`` edges count (Bullshark's strong edges); an edge naming a
    lower round, which a decoded vertex may carry, never makes up the
    quorum.  The verdict is memoized per content digest (every recipient
    of a broadcast validates the same vertex), and a memo hit is answered
    here, before the edge sources are gathered.
    """
    if vertex.round == 0:
        return True
    verdict = committee.edge_quorum_verdicts.get(vertex.digest)
    if verdict is not None:
        return verdict
    if vertex.edges_adjacent:
        return committee.edge_quorum_verdict(
            vertex.digest, (edge.source for edge in vertex.edges), vertex.edge_mask
        )
    previous = vertex.round - 1
    return committee.edge_quorum_verdict(
        vertex.digest, [edge.source for edge in vertex.edges if edge.round == previous]
    )
