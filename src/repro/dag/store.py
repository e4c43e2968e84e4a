"""A validator's local view of the DAG (``DAGi[]`` in Algorithm 1).

The store enforces two invariants the correctness proofs rely on:

* **Causal completeness** (Claim 1): a vertex only becomes part of the DAG
  once its entire causal history is present.  Vertices whose parents are
  still missing are parked in a pending buffer and promoted automatically.
* **Non-equivocation**: at most one vertex per (round, source) pair is
  ever accepted; conflicting vertices raise :class:`EquivocationError`.

Storage
-------

A vertex is held once per store, in its round's slab: a list indexed by
validator id.  The slabs are the only index: every ``VertexId`` lookup
(``get``, ``in``, ``path``, the reachability walk, ``reconsider_pending``)
is a dict get on the round and a list index on the source, bounds-checked
so that an id naming a source outside the committee is absent rather
than another validator's vertex.  A per-round arrival list keeps the
order vertices entered the DAG, which parent selection reads through
``vertices_at``.  Each round's total stake and source bitmask are kept
beside its slab on insert and GC, so the quorum checks, the commit
rule's ``f+1`` vote-stake gate and a fetch request's frontier
(``held_sources``) are a dict get.  ``round_stake``, ``round_sources``
and ``lowest_round`` (the GC horizon) are plain attributes, read-only
outside the store: the insertion gates of the node and the consensus
engine read them without a call; the slabs stay private.

Insertion
---------

``add`` answers the common case, a new vertex whose parents are all
stored, in its own frame: the known-check (duplicate, equivocation) runs
only when the vertex's slot is taken or a vertex is parked, and the
edge-quorum memo and the one-AND parent test are read inline.  A vertex
naming a source or an edge source outside the committee is a
:class:`DagError`, raised before any state changes.  Parking, promotion
and the full parent scan keep their helpers.  The store does not record
which anchor rounds an insertion touched: the consensus engine derives
that from the inserted vertex's round (``BullsharkConsensus.process_vertex``).

Reachability
------------

One walk answers every reachability question (``_descend``): a descent
from a root over the round slabs, one source bitmask per round, that
ORs each stored vertex's ``edge_mask`` into the round below and stops at
absent vertices and at what the caller excludes.  ``path()`` reads the
ancestor's bit from it, ``causal_history()`` maps its masks back to the
stored vertices, and the fetch responder (``Synchronizer.unheld_history``)
calls ``causal_history`` with the requester's frontier excluded and its
horizon as the floor.  Nothing is memoized, so nothing goes stale when a
straggler arrives below the GC horizon or when GC prunes.  The plain
breadth-first search the walk must agree with lives in
``tests/reference_model.py``.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.committee import Committee
from repro.dag.vertex import Vertex, check_edge_quorum
from repro.errors import DagError, EquivocationError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.types import Round, ValidatorId, VertexId


class DagStore:
    """In-memory DAG with pending-parent buffering and reachability queries."""

    # Observability (repro.obs): shared null tracer by default, replaced
    # per instance by install_tracer.  Hot sites test the bare boolean.
    _tracer: Tracer = NULL_TRACER
    _tracing = False
    trace_owner: ValidatorId = -1

    # Recycled round slabs kept after GC (see ``garbage_collect``).
    _SLAB_POOL_LIMIT = 64

    def __init__(self, committee: Committee, require_edge_quorum: bool = True) -> None:
        self.committee = committee
        # Flat per-validator stake lookup and the 2f+1 threshold for the
        # insertion hot path.
        self._stakes = committee.stake_vector.stakes
        self._quorum = committee.quorum_threshold
        self.require_edge_quorum = require_edge_quorum
        # Arena-style per-round storage, the one index of the stored
        # vertices: ``_round_slots[r][source]`` is the round-``r`` vertex
        # from ``source`` (``None`` when absent) in a flat slab indexed by
        # validator id, so a ``VertexId`` lookup is a round-dict get and a
        # list index.  ``_round_order[r]`` keeps the round's arrival
        # sequence (digest-relevant: parent selection reads it).  Slabs
        # are recycled through ``_slab_pool`` at GC so a long run
        # allocates a bounded number of per-round containers.
        self._size = len(committee.stake_vector.stakes)
        self._round_slots: Dict[Round, List[Optional[Vertex]]] = {}
        self._round_order: Dict[Round, List[Vertex]] = {}
        self._slab_pool: List[List[Optional[Vertex]]] = []
        # Read-only outside the store (see the module docstring): the
        # total stake present per round, maintained on insert/GC so the
        # per-insertion quorum checks are a dict get instead of a sum.
        self.round_stake: Dict[Round, int] = {}
        # Read-only outside the store: the bitmask of the sources present
        # per round (bit ``s`` = validator ``s``, the ``Vertex.edge_mask``
        # positions), maintained beside the stake: the frontier a fetch
        # request advertises, and whether a given validator's vertex of a
        # round is stored.
        self.round_sources: Dict[Round, int] = {}
        # Stored vertices, kept by insertion and GC for ``len()``.
        self._count = 0
        # Vertices waiting for missing parents, keyed by the missing parent.
        self._pending: Dict[VertexId, Vertex] = {}
        self._waiting_on: Dict[VertexId, Set[VertexId]] = {}
        # Callbacks invoked whenever a vertex is actually inserted.
        self._on_insert: List[Callable[[Vertex], None]] = []
        # The GC horizon: rounds below it are pruned, and parents below
        # it count as present.  Read-only outside the store.
        self.lowest_round = 0
        # Cached ``max(self._round_slots)``; queried on every round advance.
        self._highest_round = 0
        # Set when a vertex is inserted below the GC horizon; tells the
        # next garbage_collect that a sweep is needed even if the horizon
        # did not move.
        self._stale_below_horizon = False
        # Always-on cheap counters (snapshotted into ExperimentResult):
        # high-water mark of the pending buffer and total GC reclaim.
        self.pending_peak = 0
        self.gc_reclaimed_total = 0

    # -- observers ------------------------------------------------------------

    def install_tracer(self, tracer: Tracer, owner: ValidatorId) -> None:
        """Attach a tracer; events carry ``owner`` as their node id."""
        self._tracer = tracer
        self._tracing = tracer.enabled
        self.trace_owner = owner

    def on_insert(self, callback: Callable[[Vertex], None]) -> None:
        """Register a callback fired after each successful insertion."""
        self._on_insert.append(callback)

    def replace_insert_callbacks(self, callbacks: Iterable[Callable[[Vertex], None]]) -> None:
        """Replace all insertion callbacks (used when a node recovers)."""
        self._on_insert = list(callbacks)

    # -- insertion --------------------------------------------------------------

    def add(self, vertex: Vertex) -> bool:
        """Add ``vertex`` to the DAG.

        Returns ``True`` when the vertex (and possibly vertices that were
        waiting on it) became part of the DAG, ``False`` when it was
        already known or was parked in the pending buffer because parents
        are missing.  Raises :class:`DagError` for a vertex the DAG cannot
        hold: a source or an edge source outside the committee, or no
        2f+1 parent quorum (and :class:`EquivocationError` for a twin).

        The common case, a new vertex whose parents are all stored, is
        answered in this frame: the known-check runs only when the slot is
        taken or a vertex is parked, the edge-quorum memo and the parent
        mask are read inline, and the insertion is :meth:`_insert`'s body
        (its twin, which the promotion paths call).
        """
        round_number = vertex.round
        source = vertex.source
        size = self._size
        if not 0 <= source < size:
            # Bounded before any state changes: a slab index, a shift.
            raise DagError(f"vertex {vertex.id} names a source outside the committee")
        round_slots = self._round_slots
        slots = round_slots.get(round_number)
        if (self._pending or (slots is not None and slots[source] is not None)) and self._check_known(vertex):
            return False
        if round_number and self.require_edge_quorum:
            if vertex.edge_mask >> size:
                # The stake of a parent outside the committee is no number.
                raise DagError(f"vertex {vertex.id} names an edge source outside the committee")
            # ``check_edge_quorum``'s memo hit, read here.
            verdict = self.committee.edge_quorum_verdicts.get(vertex.digest)
            if verdict is None:
                verdict = check_edge_quorum(vertex, self.committee)
            if not verdict:
                raise DagError(
                    f"vertex {vertex.id} does not reference a 2f+1 quorum of parents"
                )
        if not vertex.edges_adjacent or vertex.edge_mask & ~self.round_sources.get(round_number - 1, 0):
            # ``missing_parents``'s one-AND answer failed: ask it in full.
            missing = self.missing_parents(vertex)
            if missing:
                self._park(vertex, missing)
                return False
        # ``_insert``, inlined.
        if round_number < self.lowest_round:
            self._stale_below_horizon = True
        self._count += 1
        bit = 1 << source
        if slots is None:
            pool = self._slab_pool
            slots = pool.pop() if pool else [None] * size
            round_slots[round_number] = slots
            order = self._round_order[round_number] = []
            self.round_sources[round_number] = bit
        else:
            order = self._round_order[round_number]
            self.round_sources[round_number] |= bit
        slots[source] = vertex
        order.append(vertex)
        round_stake = self.round_stake
        round_stake[round_number] = round_stake.get(round_number, 0) + self._stakes[source]
        if round_number > self._highest_round:
            self._highest_round = round_number
        if self._tracing:
            self._tracer.emit(
                "vertex_inserted",
                node=self.trace_owner,
                round=round_number,
                source=source,
            )
        for callback in self._on_insert:
            callback(vertex)
        if self._waiting_on:
            self._promote_pending(vertex.id)
        return True

    def _check_known(self, vertex: Vertex) -> bool:
        """Detect duplicates and equivocation for ``vertex``."""
        # ``get`` inlined: this runs once per insertion.
        slots = self._round_slots.get(vertex.round)
        source = vertex.source
        existing = slots[source] if slots is not None and 0 <= source < len(slots) else None
        if existing is not None:
            if existing.digest != vertex.digest:
                raise EquivocationError(
                    f"validator {vertex.source} equivocated at round {vertex.round}"
                )
            return True
        pending = self._pending.get(vertex.id)
        if pending is not None:
            if pending.digest != vertex.digest:
                raise EquivocationError(
                    f"validator {vertex.source} equivocated at round {vertex.round}"
                )
            return True
        return False

    # Shared empty result for the common all-parents-present case, so the
    # per-insertion check does not allocate.
    _NO_MISSING: FrozenSet[VertexId] = frozenset()

    def missing_parents(self, vertex: Vertex) -> Set[VertexId]:
        """Parents of ``vertex`` not yet part of the DAG.

        Parents below the garbage-collection horizon are treated as
        present: their sub-DAG has already been ordered and pruned.
        """
        if vertex.edges_adjacent:
            # Every edge names ``round - 1``, so the edge mask against the
            # round's source mask answers for all parents at once; a bit
            # the round lacks (or a pruned round) takes the loop below.
            if not vertex.edge_mask & ~self.round_sources.get(vertex.round - 1, 0):
                return self._NO_MISSING
        round_slots = self._round_slots
        lowest = self.lowest_round
        missing: Optional[Set[VertexId]] = None
        for parent in vertex.edges:
            if parent.round < lowest:
                continue
            # ``get`` inlined, bounds check included.
            slots = round_slots.get(parent.round)
            source = parent.source
            if slots is None or not 0 <= source < len(slots) or slots[source] is None:
                if missing is None:
                    missing = {parent}
                else:
                    missing.add(parent)
        return missing if missing is not None else self._NO_MISSING

    def _park(self, vertex: Vertex, missing: Set[VertexId]) -> None:
        self._pending[vertex.id] = vertex
        for parent in missing:
            self._waiting_on.setdefault(parent, set()).add(vertex.id)
        depth = len(self._pending)
        if depth > self.pending_peak:
            self.pending_peak = depth
        if self._tracing:
            self._tracer.emit(
                "vertex_parked",
                node=self.trace_owner,
                round=vertex.round,
                source=vertex.source,
                missing=len(missing),
            )

    def _insert(self, vertex: Vertex) -> None:
        """Store ``vertex`` and fire the insertion callbacks (the promotion
        paths; :meth:`add` inlines the same body)."""
        if vertex.round < self.lowest_round:
            # A straggler below the GC horizon: the next garbage_collect
            # sweeps its slab even if the horizon does not move.
            self._stale_below_horizon = True
        round_number = vertex.round
        source = vertex.source
        self._count += 1
        slots = self._round_slots.get(round_number)
        if slots is None:
            pool = self._slab_pool
            slots = pool.pop() if pool else [None] * self._size
            self._round_slots[round_number] = slots
            order = self._round_order[round_number] = []
            self.round_sources[round_number] = 1 << source
        else:
            order = self._round_order[round_number]
            self.round_sources[round_number] |= 1 << source
        slots[source] = vertex
        order.append(vertex)
        self.round_stake[round_number] = (
            self.round_stake.get(round_number, 0) + self._stakes[source]
        )
        if round_number > self._highest_round:
            self._highest_round = round_number
        if self._tracing:
            self._tracer.emit(
                "vertex_inserted",
                node=self.trace_owner,
                round=round_number,
                source=source,
            )
        for callback in self._on_insert:
            callback(vertex)

    def _promote_pending(self, arrived: VertexId) -> None:
        """Promote pending vertices whose last missing parent just arrived."""
        queue = deque([arrived])
        while queue:
            parent = queue.popleft()
            waiters = self._waiting_on.pop(parent, set())
            # Promotion order decides insertion order into the round
            # tables, which downstream lookups expose; sort so it is a
            # function of the vertex ids, not of set iteration order.
            for waiter_id in sorted(waiters):
                waiter = self._pending.get(waiter_id)
                if waiter is None:
                    continue
                if not self.missing_parents(waiter):
                    del self._pending[waiter_id]
                    self._insert(waiter)
                    if self._tracing:
                        self._tracer.emit(
                            "vertex_promoted",
                            node=self.trace_owner,
                            round=waiter.round,
                            source=waiter.source,
                        )
                    queue.append(waiter_id)

    # -- lookups --------------------------------------------------------------------

    def __contains__(self, vertex_id: VertexId) -> bool:
        return self.get(vertex_id) is not None

    def get(self, vertex_id: VertexId) -> Optional[Vertex]:
        """The stored vertex with ``vertex_id``, read from its round's slab.

        The bounds check matters: ``slots[-1]`` would answer with another
        validator's vertex.
        """
        slots = self._round_slots.get(vertex_id.round)
        source = vertex_id.source
        if slots is None or not 0 <= source < len(slots):
            return None
        return slots[source]

    def vertex_of(self, round_number: Round, source: ValidatorId) -> Optional[Vertex]:
        slots = self._round_slots.get(round_number)
        if slots is None or not 0 <= source < len(slots):
            return None
        return slots[source]

    def vertices_at(self, round_number: Round) -> Tuple[Vertex, ...]:
        # Arrival order under the single-threaded simulator;
        # the per-round arrival list makes it deterministic, and the
        # differential suite pins the digests that depend on it.
        return tuple(self._round_order.get(round_number, ()))

    def held_sources(self) -> Tuple[Tuple[Round, int], ...]:
        """``(round, source bitmask)`` for every stored round, ascending.

        Bit ``s`` of a mask says the round's vertex from validator ``s``
        is part of the DAG; parked vertices are not.  Together with
        :attr:`lowest_round` this is the frontier a fetch request
        advertises (``FetchRequest.held``).
        """
        return tuple(sorted(self.round_sources.items()))

    def sources_at(self, round_number: Round) -> int:
        """The source bitmask of ``round_number``, as in :meth:`held_sources`."""
        return self.round_sources.get(round_number, 0)

    def stake_at(self, round_number: Round) -> int:
        """Total stake of the sources with a vertex in ``round_number``."""
        return self.round_stake.get(round_number, 0)

    def has_quorum_at(self, round_number: Round) -> bool:
        return self.round_stake.get(round_number, 0) >= self._quorum

    def highest_round(self) -> Round:
        if not self._round_slots:
            return 0
        return self._highest_round

    def __len__(self) -> int:
        return self._count

    def pending_missing(self) -> Set[VertexId]:
        """All parents currently blocking pending vertices."""
        missing: Set[VertexId] = set()
        for vertex in self._pending.values():
            missing.update(self.missing_parents(vertex))
        return missing

    def pending_vertices(self) -> Tuple[Vertex, ...]:
        """Vertices parked while waiting for missing parents."""
        # Arrival order (insertion-ordered dict), exposed
        # for introspection and fetch bookkeeping only.
        return tuple(self._pending.values())

    def round_map(self, round_number: Round) -> Sequence[Optional[Vertex]]:
        """Read-only slab of the vertices at ``round_number`` by source.

        The result is indexable by validator id (``None`` where the source
        has no vertex yet) and iterates in id order.  Unlike
        :meth:`vertices_at` this does not copy; callers must not mutate
        the returned sequence.  Used by the commit rule's direct-vote
        count, where a per-call copy was measurable at committee 25+.
        """
        return self._round_slots.get(round_number, self._EMPTY_ROUND)

    _EMPTY_ROUND: Tuple[Optional[Vertex], ...] = ()

    # -- reachability (``path`` in Algorithm 1) ---------------------------------------

    def path(self, descendant: VertexId, ancestor: VertexId) -> bool:
        """``True`` when a directed path exists from ``descendant`` to ``ancestor``.

        Edges point from a round-``r`` vertex to lower rounds, so the walk
        always moves downwards and stops at ``ancestor``'s round.  An
        ancestor counts as reached when an edge names its id, whether or
        not the ancestor vertex itself is still stored (it may have been
        pruned).
        """
        start = self.get(descendant)
        if descendant == ancestor:
            return start is not None
        if start is None or ancestor.round >= start.round or ancestor.source < 0:
            return False
        reached = self._descend(descendant, ancestor.round, self._NO_EXCLUSION)
        return reached.get(ancestor.round, 0) >> ancestor.source & 1 == 1

    def causal_history(
        self, root: VertexId, exclude: Optional[Dict[Round, int]] = None, floor: Round = -1
    ) -> List[Vertex]:
        """All vertices reachable from ``root`` that ``exclude`` does not name.

        ``exclude`` maps a round to a source bitmask (bit ``s`` names the
        round's vertex from validator ``s``): the form the consensus
        engine keeps its ordered vertices in, and a fetch request its
        requester's frontier.  Nothing below ``floor`` is visited.  The
        result is in ascending (round, source) order, so every validator
        linearizes a committed sub-DAG identically (Algorithm 2, line 35).
        Excluded and absent vertices (pruned or never received) stop the
        walk: nothing beneath them is visited unless another path reaches
        it.
        """
        if self.get(root) is None:
            raise DagError(f"vertex {root} is not in the DAG")
        reached = self._descend(root, floor, exclude if exclude is not None else self._NO_EXCLUSION)
        round_slots = self._round_slots
        sources_of = self.committee.stake_vector.validators_of_mask
        return [
            vertex
            for round_number in sorted(reached)
            if round_number in round_slots
            for vertex in map(round_slots[round_number].__getitem__, sources_of(reached[round_number]))
            if vertex is not None
        ]

    _NO_EXCLUSION: Dict[Round, int] = {}

    def _descend(self, root: VertexId, floor: Round, excluded: Dict[Round, int]) -> Dict[Round, int]:
        """``{round: source mask}`` of the ids reachable from ``root``, ``root`` included.

        A level-by-level descent over the round slabs, one source mask
        per level.  ``make_vertex`` edges all name the previous round, so
        ``wanted`` holds one round at a time; a decoded vertex can name
        any round, which is why it is a dict and why ``reached`` (ids
        already visited, stored or not) also guards termination.  An id
        ``excluded`` names, an absent vertex and a round below ``floor``
        are not descended through; the vertices *at* ``floor`` are, as a
        decoded one may name a round above it.
        """
        round_slots = self._round_slots
        sources_of = self.committee.stake_vector.validators_of_mask
        in_committee = (1 << self._size) - 1
        reached: Dict[Round, int] = {}
        wanted: Dict[Round, int] = {root.round: 1 << root.source}
        while wanted:
            round_number = max(wanted)
            visited = reached.get(round_number, 0)
            fresh = wanted.pop(round_number) & in_committee & ~visited & ~excluded.get(round_number, 0)
            if not fresh or round_number < floor:
                continue
            reached[round_number] = visited | fresh
            slots = round_slots.get(round_number)
            if slots is None:
                continue
            below = 0
            for source in sources_of(fresh):
                vertex = slots[source]
                if vertex is None:
                    continue
                if vertex.edges_adjacent:
                    below |= vertex.edge_mask
                else:
                    for edge in vertex.edges:
                        wanted[edge.round] = wanted.get(edge.round, 0) | 1 << edge.source
            if below:
                wanted[round_number - 1] = wanted.get(round_number - 1, 0) | below
        return reached

    # -- garbage collection ----------------------------------------------------------------

    def reconsider_pending(self) -> int:
        """Re-evaluate parked vertices after the GC horizon moved.

        Raising the horizon (state sync) makes parents below it count as
        present, so vertices that were waiting only on pruned history can
        now be inserted.  Returns the number of vertices promoted.
        """
        promoted = 0
        progress = True
        while progress:
            progress = False
            # Promotion fires insertion callbacks that may re-enter this
            # method (a node's callback runs consensus, whose GC calls back
            # into the store), so entries from this snapshot may already
            # have been handled by a nested pass: remove with pop(), never
            # an unguarded del.
            for vertex_id, vertex in list(self._pending.items()):
                if self.get(vertex_id) is not None:
                    self._pending.pop(vertex_id, None)
                    continue
                if not self.missing_parents(vertex):
                    if self._pending.pop(vertex_id, None) is None:
                        continue
                    self._insert(vertex)
                    promoted += 1
                    progress = True
        if promoted:
            # Drop stale wait registrations for parents that will never come.
            self._waiting_on = {
                parent: {waiter for waiter in waiters if waiter in self._pending}
                for parent, waiters in self._waiting_on.items()
            }
            self._waiting_on = {
                parent: waiters for parent, waiters in self._waiting_on.items() if waiters
            }
        return promoted

    def garbage_collect(self, before_round: Round) -> int:
        """Drop vertices strictly below ``before_round``.

        Committed and ordered history no longer needs to be kept for
        reachability queries; the production system similarly prunes old
        rounds from RocksDB.  Returns the number of vertices removed.

        Raising the horizon also re-evaluates the pending buffer: parked
        vertices whose missing parents all fell below the horizon are
        promoted into the DAG, parked vertices *below* the horizon (their
        sub-DAG is already ordered history) are dropped, and wait
        registrations keyed by pruned parents are purged.  Without this the
        buffer leaks on long runs and vertices parked on pruned parents
        stay stranded forever.
        """
        if before_round <= self.lowest_round and not self._stale_below_horizon:
            # The horizon did not move and no straggler arrived below it:
            # nothing to prune.  The consensus engine calls this on every
            # insertion, so the early-out matters.
            return 0
        removed = 0
        for round_number in [r for r in self._round_slots if r < before_round]:
            removed += len(self._round_order.pop(round_number))
            slots = self._round_slots.pop(round_number)
            # Recycle the slab: wipe in place and park it for the next
            # round allocation.  The pool is bounded so a burst GC cannot
            # retain arbitrarily many empty slabs.
            if len(self._slab_pool) < self._SLAB_POOL_LIMIT and len(slots) == self._size:
                for index in range(self._size):
                    slots[index] = None
                self._slab_pool.append(slots)
            self.round_stake.pop(round_number, None)
            self.round_sources.pop(round_number, None)
        self._count -= removed
        if not self._round_slots:
            # GC swallowed every round (the horizon overtook the frontier);
            # match ``max(rounds) or 0`` semantics.
            self._highest_round = 0
        self.lowest_round = max(self.lowest_round, before_round)
        self._stale_below_horizon = False
        self._prune_pending(before_round)
        self.reconsider_pending()
        self.gc_reclaimed_total += removed
        if self._tracing and removed:
            self._tracer.emit(
                "dag_gc",
                node=self.trace_owner,
                before_round=before_round,
                removed=removed,
            )
        return removed

    def _prune_pending(self, before_round: Round) -> None:
        """Drop parked vertices and wait registrations below the horizon."""
        for vertex_id in [v for v in self._pending if v.round < before_round]:
            del self._pending[vertex_id]
        for parent in [p for p in self._waiting_on if p.round < before_round]:
            del self._waiting_on[parent]
        # Registrations whose waiter was just dropped (or promoted by an
        # earlier pass) are stale as well.
        # list() only guards mutation during iteration;
        # the per-key rebuild/delete is order-insensitive.
        for parent in list(self._waiting_on):
            waiters = {w for w in self._waiting_on[parent] if w in self._pending}
            if waiters:
                self._waiting_on[parent] = waiters
            else:
                del self._waiting_on[parent]
