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
``vertices_at``.

Reachability cache
------------------

``path()`` queries are issued by the commit rule while walking anchor
chains, and a search per probe would repeat the same downward walk.  The
store memoizes, per vertex and per target round, the set of *sources*
whose round-``r`` vertex is reachable (``_reachable_sources``), and every
``path()`` query is answered from it.  Identity of a vertex is its
``(round, source)`` pair, so membership of the ancestor's source in that
set is exactly path reachability.  The plain breadth-first search this
must agree with lives in ``tests/reference_model.py``.

The cache stays correct under the store's mutation pattern:

* The DAG grows at the frontier: a vertex is only inserted once every
  parent at or above the GC horizon is present, so a new insertion can
  never add paths *between* previously inserted vertices — cached entries
  stay valid.  The single exception is a straggler delivered *below* the
  horizon (its parents count as present), which can reconnect previously
  blocked walks; such an insertion invalidates only the entries of
  vertices that can reach the straggler, and only their target rounds at
  or below it.  It is rare: a broadcast delivered after its round was
  pruned (fetch responses are filtered at the horizon by the node).
* ``garbage_collect`` drops cache lines keyed by pruned vertices and all
  cached target rounds below the new horizon.  Entries for surviving
  vertices with targets at or above the horizon only ever traversed
  rounds above the pruned region, so they remain valid.
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
        # Flat per-validator stake lookup for the insertion hot path.
        self._stakes = committee.stake_vector.stakes
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
        # Total stake present per round, maintained on insert/GC so the
        # per-insertion quorum checks are O(1) instead of summing stakes.
        self._round_stake: Dict[Round, int] = {}
        # Bitmask of the sources present per round (bit ``s`` = validator
        # ``s``, the ``Vertex.edge_mask`` positions), maintained beside
        # the stake: the frontier a fetch request advertises.
        self._round_sources: Dict[Round, int] = {}
        # Stored vertices, kept by ``_insert`` and GC for ``len()``.
        self._count = 0
        # Vertices waiting for missing parents, keyed by the missing parent.
        self._pending: Dict[VertexId, Vertex] = {}
        self._waiting_on: Dict[VertexId, Set[VertexId]] = {}
        # Callbacks invoked whenever a vertex is actually inserted.
        self._on_insert: List[Callable[[Vertex], None]] = []
        self._lowest_round = 0
        # Cached ``max(self._round_slots)``; queried on every round advance.
        self._highest_round = 0
        # vertex id -> {target round -> sources reachable at that round}.
        self._reach_cache: Dict[VertexId, Dict[Round, FrozenSet[ValidatorId]]] = {}
        # Anchor rounds whose commit-rule status may have changed since the
        # consensus engine last drained this set: an insertion at an even
        # round r is a (potential) anchor for r, an insertion at an odd
        # round r is a (potential) vote for the anchor of r - 1.  Tracking
        # this at the store keeps the commit scan correct no
        # matter how vertices enter the DAG (broadcast, promotion of parked
        # vertices, GC-triggered promotion, recovery replay).
        self._dirty_anchor_rounds: Set[Round] = set()
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
        waiting on it) became part of the DAG, ``False`` when it was parked
        in the pending buffer because parents are missing.
        """
        if self._check_known(vertex):
            return False
        if self.require_edge_quorum and not check_edge_quorum(vertex, self.committee):
            raise DagError(
                f"vertex {vertex.id} does not reference a 2f+1 quorum of parents"
            )
        missing = self.missing_parents(vertex)
        if missing:
            self._park(vertex, missing)
            return False
        self._insert(vertex)
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
            if not vertex.edge_mask & ~self._round_sources.get(vertex.round - 1, 0):
                return self._NO_MISSING
        round_slots = self._round_slots
        lowest = self._lowest_round
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
        if vertex.round < self._lowest_round:
            # A straggler below the GC horizon can reconnect walks that
            # previously stopped at its (absent) id.  Only cache entries of
            # vertices that can actually reach the straggler — and only
            # their targets at or below its round — can change, so those
            # are invalidated surgically instead of clearing the whole
            # cache; warm entries elsewhere survive state sync.
            self._invalidate_straggler_reachers(vertex)
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
            self._round_sources[round_number] = 1 << source
        else:
            order = self._round_order[round_number]
            self._round_sources[round_number] |= 1 << source
        slots[source] = vertex
        order.append(vertex)
        self._round_stake[round_number] = (
            self._round_stake.get(round_number, 0) + self._stakes[source]
        )
        if round_number > self._highest_round:
            self._highest_round = round_number
        anchor_round = round_number if round_number % 2 == 0 else round_number - 1
        if anchor_round >= 2:
            self._dirty_anchor_rounds.add(anchor_round)
        if self._tracing:
            self._tracer.emit(
                "vertex_inserted",
                node=self.trace_owner,
                round=round_number,
                source=source,
            )
        for callback in self._on_insert:
            callback(vertex)

    def _invalidate_straggler_reachers(self, vertex: Vertex) -> None:
        """Invalidate cache entries a below-horizon straggler can affect.

        New paths opened by the straggler all pass *through* it, so the
        only stale entries are those of vertices from which the
        straggler's id is reachable, and only for target rounds at or
        below the straggler's round (sets for higher targets never
        depended on its presence: an edge naming a round-``t`` vertex
        counts for target ``t`` whether or not that vertex is stored).
        The reacher set is found by one upward sweep over the stored
        rounds above the straggler; this runs only on the rare state-sync
        path, never on frontier insertions.
        """
        cache = self._reach_cache
        if not cache:
            return
        reacher_ids: Set[VertexId] = {vertex.id}
        for round_number in sorted(r for r in self._round_slots if r > vertex.round):
            for candidate in self._round_order[round_number]:
                if any(edge in reacher_ids for edge in candidate.edges):
                    reacher_ids.add(candidate.id)
        reacher_ids.discard(vertex.id)
        for reacher_id in reacher_ids:
            entry = cache.get(reacher_id)
            if not entry:
                continue
            for target_round in [t for t in entry if t <= vertex.round]:
                del entry[target_round]
            if not entry:
                del cache[reacher_id]

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
        return tuple(sorted(self._round_sources.items()))

    def sources_at(self, round_number: Round) -> int:
        """The source bitmask of ``round_number``, as in :meth:`held_sources`."""
        return self._round_sources.get(round_number, 0)

    def stake_at(self, round_number: Round) -> int:
        """Total stake of the sources with a vertex in ``round_number``."""
        return self._round_stake.get(round_number, 0)

    def has_quorum_at(self, round_number: Round) -> bool:
        return self._round_stake.get(round_number, 0) >= self.committee.quorum_threshold

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

    def drain_dirty_anchor_rounds(self) -> Set[Round]:
        """Anchor rounds touched by insertions since the last drain.

        The consensus engine uses this to re-evaluate only the anchor
        rounds whose direct-vote quorum can actually have changed, instead
        of rescanning every candidate round on every insertion.  When the
        set is empty it is returned as-is (the caller consumes it
        immediately), avoiding a set allocation per insertion.
        """
        dirty = self._dirty_anchor_rounds
        if not dirty:
            return dirty
        self._dirty_anchor_rounds = set()
        return dirty

    def round_map(self, round_number: Round) -> Sequence[Optional[Vertex]]:
        """Read-only slab of the vertices at ``round_number`` by source.

        The result is indexable by validator id (``None`` where the source
        has no vertex yet) and iterates in id order.  Unlike
        :meth:`vertices_at` this does not copy; callers must not mutate
        the returned sequence.  Used by the per-insertion commit probes,
        where a per-call copy was measurable at committee 25+.
        """
        return self._round_slots.get(round_number, self._EMPTY_ROUND)

    _EMPTY_ROUND: Tuple[Optional[Vertex], ...] = ()

    # -- reachability (``path`` in Algorithm 1) ---------------------------------------

    def path(self, descendant: VertexId, ancestor: VertexId) -> bool:
        """``True`` when a directed path exists from ``descendant`` to ``ancestor``.

        Edges point from a round-``r`` vertex to round-``r-1`` vertices, so
        the walk always moves downwards in rounds.  An ancestor counts as
        reached when an edge names its id, whether or not the ancestor
        vertex itself is still stored (it may have been pruned).
        """
        start = self.get(descendant)
        if descendant == ancestor:
            return start is not None
        if start is None or ancestor.round >= start.round:
            return False
        return ancestor.source in self._reachable_sources(start, ancestor.round)

    def _reachable_sources(self, root: Vertex, target_round: Round) -> FrozenSet[ValidatorId]:
        cache = self._reach_cache
        entry = cache.get(root.id)
        if entry is not None:
            cached = entry.get(target_round)
            if cached is not None:
                return cached
        round_slots = self._round_slots
        # Phase 1: collect the not-yet-memoized region reachable from the
        # root, grouped by round.  The walk stops early at vertices whose
        # set is already cached and at round ``target_round + 1``.
        region: Dict[Round, List[Vertex]] = {}
        seen: Set[VertexId] = {root.id}
        queue = deque([root])
        while queue:
            vertex = queue.popleft()
            entry = cache.get(vertex.id)
            if entry is not None and target_round in entry:
                continue
            region.setdefault(vertex.round, []).append(vertex)
            if vertex.round == target_round + 1:
                continue
            # BFS order only decides memo fill order; the
            # per-vertex results are sets, and phase 2 re-sorts by round.
            for edge in vertex.edges:
                if edge in seen:
                    continue
                seen.add(edge)
                # ``get`` inlined.  Absent parents (pruned or never
                # received) block the walk.
                slots = round_slots.get(edge.round)
                source = edge.source
                if slots is not None and 0 <= source < len(slots):
                    parent = slots[source]
                    if parent is not None:
                        queue.append(parent)
        # Phase 2: rounds strictly decrease along edges, so computing in
        # ascending round order guarantees every parent's set is ready
        # (either memoized earlier or produced by a lower level).
        for round_number in sorted(region):
            for vertex in region[round_number]:
                entry = cache.setdefault(vertex.id, {})
                if target_round in entry:
                    continue
                if vertex.round == target_round + 1:
                    # Base case: edges point straight at the target round;
                    # an edge names the target vertex whether or not that
                    # vertex is still stored.
                    entry[target_round] = frozenset(edge.source for edge in vertex.edges)
                    continue
                reachable: Set[ValidatorId] = set()
                for edge in vertex.edges:
                    parent_entry = cache.get(edge)
                    if parent_entry is not None:
                        parent_set = parent_entry.get(target_round)
                        if parent_set:
                            reachable |= parent_set
                entry[target_round] = frozenset(reachable)
        return cache[root.id][target_round]

    def causal_history(
        self, root: VertexId, exclude: Optional[Dict[Round, int]] = None
    ) -> List[Vertex]:
        """All vertices reachable from ``root`` that ``exclude`` does not name.

        ``exclude`` maps a round to a source bitmask (bit ``s`` names the
        round's vertex from validator ``s``): the form the consensus
        engine keeps its ordered vertices in.  The result is in ascending
        (round, source) order, so every validator linearizes a committed
        sub-DAG identically (Algorithm 2, line 35).  Excluded and absent
        vertices (pruned or never received) stop the walk: nothing beneath
        them is visited unless another path reaches it.
        """
        if self.get(root) is None:
            raise DagError(f"vertex {root} is not in the DAG")
        excluded = exclude if exclude is not None else {}
        round_slots = self._round_slots
        sources_of = self.committee.stake_vector.validators_of_mask
        in_committee = (1 << self._size) - 1
        # A level-by-level descent over the round slabs, one source mask
        # per level.  ``make_vertex`` edges all name the previous round,
        # so ``wanted`` holds one round at a time; a decoded vertex can
        # name any round, which is why it is a dict and why ``reached``
        # (ids already visited, stored or not) also guards termination.
        reached: Dict[Round, int] = {}
        wanted: Dict[Round, int] = {root.round: 1 << root.source}
        while wanted:
            round_number = max(wanted)
            visited = reached.get(round_number, 0)
            fresh = wanted.pop(round_number) & in_committee & ~visited & ~excluded.get(round_number, 0)
            slots = round_slots.get(round_number)
            if not fresh or slots is None:
                continue
            reached[round_number] = visited | fresh
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
        return [
            vertex
            for round_number in sorted(reached)
            for vertex in map(round_slots[round_number].__getitem__, sources_of(reached[round_number]))
            if vertex is not None
        ]

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
        if before_round <= self._lowest_round and not self._stale_below_horizon:
            # The horizon did not move and no straggler arrived below it:
            # nothing to prune.  The consensus engine calls this on every
            # insertion, so the early-out matters.
            return 0
        removed = 0
        for round_number in [r for r in self._round_slots if r < before_round]:
            for vertex in self._round_order.pop(round_number):
                self._reach_cache.pop(vertex.id, None)
                removed += 1
            slots = self._round_slots.pop(round_number)
            # Recycle the slab: wipe in place and park it for the next
            # round allocation.  The pool is bounded so a burst GC cannot
            # retain arbitrarily many empty slabs.
            if len(self._slab_pool) < self._SLAB_POOL_LIMIT and len(slots) == self._size:
                for index in range(self._size):
                    slots[index] = None
                self._slab_pool.append(slots)
            self._round_stake.pop(round_number, None)
            self._round_sources.pop(round_number, None)
        self._count -= removed
        if not self._round_slots:
            # GC swallowed every round (the horizon overtook the frontier);
            # match ``max(rounds) or 0`` semantics.
            self._highest_round = 0
        self._lowest_round = max(self._lowest_round, before_round)
        self._stale_below_horizon = False
        # Cached sets for targets below the horizon may now reference
        # pruned rounds; entries at or above it never traversed them.
        for entry in self._reach_cache.values():
            for target_round in [r for r in entry if r < before_round]:
                del entry[target_round]
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

    @property
    def lowest_round(self) -> Round:
        return self._lowest_round
