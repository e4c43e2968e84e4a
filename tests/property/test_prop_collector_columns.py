"""The column collector against the per-transaction oracle.

``MetricsCollector.on_vertex_ordered`` passes over a block's columns
and keeps committed ids as ranges; ``tests/reference_collector.py`` is
the loop over transactions with a set of ids.  For generated sequences
of ordered blocks — batches, lists of ``Transaction``, foreign items
mixed in, the same block twice, partially overlapping id ranges, a
duplicate inside one block, submissions on both sides of (and exactly
on) the warm-up, an execution model that is saturated, idle or absent —
both must hold the same latency samples (bit for bit, in order), the
same finality times, counts, committed ids, throughput and execution state.
"""

import ast
from array import array
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.reference_collector as reference_collector
from repro.consensus.committed import OrderedVertex
from repro.dag.vertex import make_vertex
from repro.metrics import collector as collector_module
from repro.metrics import execution as execution_module
from repro.metrics.collector import MetricsCollector
from repro.metrics.execution import ExecutionModel
from repro.workload.transactions import Transaction, TransactionBatch
from tests.conftest import vid
from tests.mutants import load_mutant
from tests.reference_collector import ReferenceCollector

WARMUP = 2.0
DURATION = 12.0
# No block is ordered before its transactions were submitted.
FIRST_ORDERING = 4.0


def test_the_oracle_shares_no_code_with_the_collector():
    tree = ast.parse(Path(reference_collector.__file__).read_text())
    imported = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported == {"__future__", "math", "repro.workload.transactions"}


# -- scripts -----------------------------------------------------------------------------
#
# A script is (capacity_tps or None, [(gap, block spec), ...]); a block
# spec is ("batch", first id, [submitted_at, ...]), ("ids", [id, ...],
# [submitted_at, ...]), ("list", [(id, submitted_at) or a foreign item,
# ...]) or ("again", index of an earlier step).

def build_block(spec, built):
    kind = spec[0]
    if kind == "again":
        return built[spec[1] % len(built)] if built else ()
    if kind == "batch":
        _, first, times = spec
        # As one pool window hands it over: the ids a range.
        return TransactionBatch(1, range(first, first + len(times)), array("q", [7]) * len(times), array("d", times))
    if kind == "ids":
        # As a take across windows hands it over: an id column.
        _, ids, times = spec
        return TransactionBatch(1, array("q", ids), array("q", [7]) * len(ids), array("d", times))
    return [
        Transaction(item[0], 7, item[1], 1) if isinstance(item, tuple) else item
        for item in spec[1]
    ]


def play(script, collector_class=MetricsCollector, execution_class=ExecutionModel):
    """Feed ``script`` to both; returns what each is left holding."""
    capacity, steps = script
    production = collector_class(
        confirmation_delay=0.040,
        warmup=WARMUP,
        execution=None if capacity is None else execution_class(capacity),
    )
    oracle = ReferenceCollector(confirmation_delay=0.040, warmup=WARMUP, capacity_tps=capacity)
    built = []
    ordered_at = FIRST_ORDERING
    submitted = 0
    for position, (gap, spec) in enumerate(steps):
        ordered_at += gap
        block = build_block(spec, built)
        built.append(block)
        submitted += len(block)
        for item in block:
            production.on_transaction_submitted(item)
        vertex = make_vertex(3, position % 4, [vid(2, index) for index in range(3)], block=block)
        production.on_vertex_ordered(OrderedVertex(vertex, ordered_at, 4, position))
        oracle.on_block(list(block), ordered_at)
    assert production.submitted == submitted
    execution = production.execution
    return (
        {
            "latencies": list(chain.from_iterable(production.latency.blocks)),
            "finality": list(chain.from_iterable(production.finality_blocks)),
            "committed": production.committed,
            "duplicates": production.duplicate_commits,
            "committed_ids": sum(
                stop - start for start, stop in zip(production._committed_starts, production._committed_stops)
            ),
            "throughput": production.throughput(DURATION),
            "busy_until": None if execution is None else execution._busy_until,
            "executed": None if execution is None else execution.executed,
        },
        {
            "latencies": oracle.latencies,
            "finality": oracle.finality_times,
            "committed": oracle.committed,
            "duplicates": oracle.duplicate_commits,
            "committed_ids": len(oracle.committed_ids),
            "throughput": oracle.throughput(DURATION),
            "busy_until": None if capacity is None else oracle.busy_until,
            "executed": None if capacity is None else oracle.executed,
        },
    )


# Submissions straddle the warm-up and sit exactly on it.
_times = st.one_of(
    st.sampled_from([0.0, 1.5, WARMUP, 2.0000000000000004, 2.5, 3.25]),
    st.floats(min_value=0.0, max_value=4.0),
)
# Few ids, so that ranges touch, overlap and repeat.
_ids = st.integers(min_value=0, max_value=40)
_blocks = st.one_of(
    st.tuples(st.just("batch"), _ids, st.lists(_times, max_size=12)),
    st.tuples(
        st.just("list"),
        st.lists(
            st.one_of(st.tuples(_ids, _times), st.sampled_from(["opaque", 17, None])), max_size=10
        ),
    ),
    st.tuples(st.just("again"), st.integers(min_value=0, max_value=8)),
)
_scripts = st.tuples(
    # 1000/s idles between blocks, 2/s saturates, 7/s does both in turn.
    st.sampled_from([None, 2.0, 7.0, 1000.0]),
    st.lists(
        st.tuples(st.one_of(st.sampled_from([0.0, 0.1, 1.0]), st.floats(0.0, 3.0)), _blocks),
        max_size=10,
    ),
)


@settings(max_examples=300, deadline=None)
@given(script=_scripts)
def test_columns_leave_what_the_loop_leaves(script):
    production, oracle = play(script)
    assert production == oracle


# -- batches of any ids, compared bit for bit --------------------------------------------
#
# A batch taken across pool windows carries an id column, which the
# collector settles id by id.  Runs, the same ids shuffled, a gap, a
# repeat, negative ids and ids up to 2**63 - 1 all meet that path here.


@st.composite
def _id_batches(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(["run", "shuffled", "gapped", "repeated", "negative", "top"]))
    first = draw(st.integers(min_value=0, max_value=40))
    ids = list(range(first, first + count))
    if kind == "shuffled":
        ids = draw(st.permutations(ids))
    elif kind == "gapped":
        ids[-1] += draw(st.integers(min_value=1, max_value=3))
    elif kind == "repeated":
        ids[-1] = ids[draw(st.integers(min_value=0, max_value=count - 1))]
    elif kind == "negative":
        ids = [tx_id - 45 for tx_id in ids]
    elif kind == "top":
        top = (1 << 63) - draw(st.integers(min_value=0, max_value=2))
        ids = list(range(top - count, top))
    return ("ids", ids, draw(st.lists(_times, min_size=count, max_size=count)))


_id_scripts = st.tuples(
    st.sampled_from([None, 2.0, 7.0, 1000.0]),
    st.lists(st.tuples(st.sampled_from([0.0, 0.1, 1.0]), st.one_of(_id_batches(), _blocks)), max_size=12),
)


def _bits(outcome):
    return {
        key: [value.hex() for value in values] if key in ("latencies", "finality") else values
        for key, values in outcome.items()
    }


@settings(max_examples=300, deadline=None)
@given(script=_id_scripts)
def test_batches_of_any_ids_leave_what_the_loop_leaves_bit_for_bit(script):
    production, oracle = play(script)
    assert _bits(production) == _bits(oracle)


# -- fixed scripts: every family at least once, and what the mutants must meet ---------

FIXED_SCRIPTS = {
    "saturated-then-idle": (
        7.0,
        [
            (4.0, ("batch", 0, [2.5, 2.6, 2.7, 2.8, 2.9, 3.0, 3.1])),
            (0.1, ("batch", 7, [3.0, 3.1, 3.2])),
            (3.0, ("batch", 10, [3.3, 3.4])),
        ],
    ),
    "on-the-warm-up": (
        None,
        [(3.0, ("batch", 0, [1.5, WARMUP, 2.5])), (0.5, ("list", [(9, WARMUP), (8, 0.0), "opaque"]))],
    ),
    "overlaps-and-repeats": (
        1000.0,
        [
            (3.0, ("batch", 5, [2.5] * 5)),
            (0.1, ("batch", 8, [2.5] * 5)),
            (0.1, ("batch", 2, [2.5] * 4)),
            (0.1, ("again", 0)),
            (0.1, ("list", [(20, 2.5), (20, 2.5), (1, 2.5), (13, 2.5)])),
            (0.1, ("batch", 0, [2.5] * 22)),
        ],
    ),
    "no-execution": (None, [(3.0, ("batch", 0, [2.5, 0.5])), (0.2, ("list", [(2, 2.25), 17, (0, 2.5)]))]),
}


@pytest.mark.parametrize("name", sorted(FIXED_SCRIPTS))
def test_fixed_scripts_agree(name):
    production, oracle = play(FIXED_SCRIPTS[name])
    assert oracle["committed"] > 0, "the script commits nothing"
    assert production == oracle


# -- source mutants --------------------------------------------------------------------------------

def mutant_classes(module, replacements):
    """``{"collector_class" or "execution_class": the class of ``module``
    with ``replacements`` applied}``, to be passed to :func:`play`."""
    mutant = load_mutant(module, replacements)
    if module is collector_module:
        return {"collector_class": mutant.MetricsCollector}
    return {"execution_class": mutant.ExecutionModel}


SOURCE_MUTANTS = {
    "service-time-multiplied-not-accumulated": (
        execution_module,
        "accumulate(repeat(self.service_time, count), initial=start)",
        "iter([start + k * self.service_time for k in range(count + 1)])",
    ),
    "warm-up-comparison-strict": (
        collector_module,
        "submit_time >= warmup",
        "submit_time > warmup",
    ),
    "overlapping-range-counted-as-new": (
        collector_module,
        " or (at < len(starts) and starts[at] < stop)",
        "",
    ),
}


@pytest.mark.parametrize("mutant", sorted(SOURCE_MUTANTS))
def test_fixed_scripts_kill_the_source_mutant(mutant):
    module, original, replacement = SOURCE_MUTANTS[mutant]
    classes = mutant_classes(module, [(original, replacement)])
    killed = [
        name
        for name, script in sorted(FIXED_SCRIPTS.items())
        if not _agree(script, classes)
    ]
    assert killed, f"{mutant} survives every fixed script"
    # ... and the unmutated source, loaded the same way, survives them all.
    intact = mutant_classes(module, [])
    for script in FIXED_SCRIPTS.values():
        assert _agree(script, intact)


def _agree(script, classes):
    production, oracle = play(script, **classes)
    return production == oracle
