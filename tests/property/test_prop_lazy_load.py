"""Lazy client arrivals against the eager oracle.

``repro.workload.generator`` keeps no heap event per transaction: what
has arrived by ``now`` is created when a pool is read, crashed,
recovered, retargeted, or the run ends.  ``tests/reference_load.py`` is
the schedule written as one event per transaction.  For random clients,
rates, delays and phase windows, and random instants at which pools are
read, crashed, recovered, clients retargeted and further clients started
— all of it after deliveries began, which is when the merged schedule has
to be rebuilt from what is left — every pool's received sequence must be
the same in both, at every one of those instants, not only at the end.
A third deployment, whose targets take a whole ``TransactionBatch``
through ``submit_transactions``, must record what the per-transaction
pools record.  Groups draw their own delays, so inside one pool arrival
order is not submission order.

Ties are real here: with 18 or more clients, clients 0 and 17 share a
stagger offset, and instants are also drawn *on* arrival instants, where
the read is inclusive (``arrival == now`` is delivered).
"""

import ast
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.simulator import Simulator
from repro.workload.generator import spawn_load
from repro.workload.phases import LoadPhase, spawn_phased_load
import tests.reference_load as reference_load
from tests.reference_load import reference_spawn_load, reference_spawn_phased_load


def test_the_oracle_shares_no_code_with_the_generator():
    tree = ast.parse(Path(reference_load.__file__).read_text())
    imported = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported == {"__future__", "itertools", "repro.network.simulator"}


class Pool:
    """A load target with the validator's seams: read, crash, recover."""

    def __init__(self, target_id, simulator, key):
        self.id = target_id
        self.simulator = simulator
        self.key = key
        self.crashed = False
        self.received = []

    def submit_transaction(self, transaction):
        if not self.crashed:
            self.received.append(self.key(transaction))

    def set_crashed(self, crashed):
        # ValidatorNode.crash()/recover(): settle, then flip.
        self.simulator.settle()
        self.crashed = crashed


class BatchPool(Pool):
    """A target with the validator's batch seam next to the other."""

    def submit_transactions(self, batch):
        if not self.crashed:
            self.received.extend(self.key(transaction) for transaction in batch)


class Deployment:
    """Pools and clients on one simulator, for either implementation."""

    def __init__(self, constant, phased, key, pools, groups, pool_class=Pool):
        self.simulator = Simulator(seed=0)
        self.pools = [pool_class(index, self.simulator, key) for index in range(pools)]
        self.constant = constant
        self.generators = []
        for group in groups:
            if group["kind"] == "constant":
                self.generators += constant(
                    self.simulator, self.pools, group["rate"], group["duration"],
                    group["start"], group["delay"], group["first_client_id"],
                )
            else:
                self.generators += phased(self.simulator, self.pools, group["phases"], group["delay"])

    def apply(self, action):
        kind, argument = action
        if kind == "read":
            self.simulator.settle()
        elif kind in ("crash", "recover"):
            self.pools[argument % len(self.pools)].set_crashed(kind == "crash")
        elif kind == "start":
            # A client cannot start in the past: the window opens after now.
            # (Read first: a group too short to submit anything reads nothing.)
            self.simulator.settle()
            self.generators += self.constant(
                self.simulator, self.pools, argument["rate"], argument["duration"],
                self.simulator.now + argument["start"], argument["delay"], argument["first_client_id"],
            )
        else:
            chosen, stride = argument
            targets = [self.pools[index % len(self.pools)] for index in chosen]
            for generator in self.generators[::stride]:
                generator.set_targets(targets)

    def snapshot(self):
        return [list(pool.received) for pool in self.pools]


def _oracle_constant(simulator, targets, rate, duration, start, delay, first_client_id):
    return reference_spawn_load(
        simulator, targets, rate, duration, start, delay, first_client_id=first_client_id
    )


def _production_phased(simulator, targets, phases, delay):
    return spawn_phased_load(simulator, targets, [LoadPhase(*phase) for phase in phases], delay)


# 6000 and 6300 tx/s make 18 clients: 0 and 17 then run identical schedules.
_rates = st.one_of(
    st.sampled_from([50.0, 100.0, 175.0, 350.0, 700.0, 6000.0, 6300.0]),
    st.floats(min_value=1.0, max_value=6500.0),
)
_delays = st.one_of(st.sampled_from([0.0, 0.040, 0.25]), st.floats(min_value=0.0, max_value=0.3))
_starts = st.one_of(st.sampled_from([0.0, 0.1, 0.25]), st.floats(min_value=0.0, max_value=0.4))


@st.composite
def _phases(draw):
    cuts = sorted(draw(st.sets(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.4]), min_size=2, max_size=5)))
    return [
        (start, end, draw(st.one_of(st.just(0.0), _rates)))
        for start, end in zip(cuts, cuts[1:])
    ]


def _constant_group(starts):
    return st.fixed_dictionaries({
        "kind": st.just("constant"),
        "rate": _rates,
        "duration": st.floats(min_value=0.05, max_value=0.4),
        "start": starts,
        "delay": _delays,
        "first_client_id": st.integers(min_value=0, max_value=40),
    })


_groups = st.lists(
    st.one_of(
        _constant_group(_starts),
        st.fixed_dictionaries({"kind": st.just("phased"), "phases": _phases(), "delay": _delays}),
    ),
    min_size=1,
    max_size=3,
)

_actions = st.one_of(
    st.tuples(st.just("read"), st.none()),
    st.tuples(st.sampled_from(["crash", "recover"]), st.integers(min_value=0, max_value=4)),
    # A late start(): ``start`` counts from the instant it happens at, and
    # is positive — an arrival on the very instant of its start() is seen
    # by a read at that instant here, by the next event there.
    st.tuples(
        st.just("start"),
        _constant_group(st.one_of(st.sampled_from([0.001, 0.1]), st.floats(min_value=0.001, max_value=0.3))),
    ),
    st.tuples(
        st.just("retarget"),
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
            st.integers(min_value=1, max_value=3),
        ),
    ),
)

# When: a plain instant, or the arrival of transaction ``index`` of client
# ``client`` (both taken modulo what the deployment turns out to have).
_instants = st.one_of(
    st.tuples(st.just("at"), st.floats(min_value=0.0, max_value=0.9), st.just(0)),
    st.tuples(st.just("arrival"), st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=400)),
)


def _resolve(instant, generators):
    kind, first, second = instant
    started = [generator for generator in generators if generator._count > 0]
    if kind == "at" or not started:
        return first if kind == "at" else 0.0
    generator = started[first % len(started)]
    index = second % generator._count
    return generator._first_time + index * generator._interval + generator.submission_delay


@settings(max_examples=100, deadline=None)
@given(
    groups=_groups,
    pools=st.integers(min_value=1, max_value=5),
    steps=st.lists(st.tuples(_instants, _actions), max_size=8),
    inside_events=st.booleans(),
)
def test_every_read_sees_what_the_eager_chain_delivered(groups, pools, steps, inside_events):
    check_against_the_eager_chain(groups, pools, steps, inside_events)


def check_against_the_eager_chain(groups, pools, steps, inside_events):
    oracle = Deployment(
        _oracle_constant, reference_spawn_phased_load, lambda transaction: transaction, pools, groups
    )
    lazy = Deployment(spawn_load, _production_phased, lambda transaction: transaction[1:4], pools, groups)
    batched = Deployment(
        spawn_load, _production_phased, lambda transaction: transaction[1:4], pools, groups, BatchPool
    )
    timeline = sorted(
        ((_resolve(instant, lazy.generators), action) for instant, action in steps),
        key=lambda step: step[0],
    )

    # The oracle decides: run to the instant (events at it included), act, look.
    expected = []
    for instant, action in timeline:
        oracle.simulator.run(until=instant)
        oracle.apply(action)
        expected.append(oracle.snapshot())
    oracle.simulator.run()
    expected.append(oracle.snapshot())

    def step(deployment, observed, action):
        deployment.apply(action)
        observed.append(deployment.snapshot())

    for deployment in (lazy, batched):
        observed = []
        for instant, action in timeline:
            if inside_events:
                # The seams as the protocol meets them: from inside an event.
                deployment.simulator.schedule_at(instant, partial(step, deployment, observed, action))
            else:
                deployment.simulator.run(until=instant)
                step(deployment, observed, action)
        deployment.simulator.run()
        observed.append(deployment.snapshot())

        assert observed == expected
        assert deployment.simulator.now == oracle.simulator.now
        assert [generator.submitted for generator in deployment.generators] == [
            generator.submitted for generator in oracle.generators
        ]


# A client started late whose first arrival falls on arrival 3 of a running
# one (64 tx/s: every instant below is a dyadic rational, exact in floats).
# Which is delivered first depends on whether the running client's arrival
# 2 — which schedules its arrival 3 — came before the start() or after.
@pytest.mark.parametrize("started_at", [1.5 / 64, 2.0 / 64, 2.5 / 64])
@pytest.mark.parametrize("inside_events", [False, True])
def test_a_late_first_arrival_takes_its_place_at_start(started_at, inside_events):
    running = {"kind": "constant", "rate": 64.0, "duration": 0.25, "start": 0.0, "delay": 0.0,
               "first_client_id": 0}
    late = dict(running, start=3.0 / 64 - started_at, first_client_id=17)
    check_against_the_eager_chain([running], 1, [(("at", started_at, 0), ("start", late))], inside_events)
