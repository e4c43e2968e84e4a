"""The column build against the eager oracle, on the benchmark client mixes.

``ClientArrivals`` lays the clients that take turns at a target into one
run by extended-slice assignment, splices the other clients in where
``bisect`` puts their rows, and orders the rows of a shared instant with
``_compare``.  ``tests/reference_load.py`` fires one event per
transaction.  Each mix below is run to the end by both, with the default
slice size and with slices of a few rows, and every pool must receive
the same rows in the same order:

* ``faultless``: 11 × 350 + 150 tx/s over 10 targets, whose 150 tx/s
  client arrives on the very instant of a 350 tx/s client at one target
  (checked: the mix would prove nothing without one);
* ``faults``: 8 × 350 + 200 tx/s over 7 targets;
* ``eighteen``: 18 × 350 tx/s, where clients 0 and 17 share a stagger
  offset and tie on every row.

A mutant that orders the rows of a shared instant by start() alone must
fail the first mix.
"""

import pytest

from repro.network.simulator import Simulator
from repro.workload import generator as generator_module
from tests.mutants import load_mutant
from tests.reference_load import reference_spawn_load

DELAY = 0.040
MIXES = {
    "faultless": (4000.0, 10, 1.0),
    "faults": (3000.0, 7, 1.0),
    "eighteen": (6300.0, 10, 0.3),
}


class Pool:
    def __init__(self, target_id):
        self.id = target_id
        self.received = []

    def submit_transaction(self, transaction):
        self.received.append(transaction)


class BatchPool(Pool):
    def submit_transactions(self, batch):
        self.received.extend(batch)


def production(rate, targets, duration, module=generator_module):
    simulator = Simulator(seed=0)
    pools = [BatchPool(index) for index in range(targets)]
    module.spawn_load(simulator, pools, rate, duration, submission_delay=DELAY)
    simulator.run()
    return [[(row.client_id, row.submitted_at.hex(), row.target_validator) for row in pool.received] for pool in pools]


def oracle(rate, targets, duration):
    simulator = Simulator(seed=0)
    pools = [Pool(index) for index in range(targets)]
    reference_spawn_load(simulator, pools, rate, duration, submission_delay=DELAY)
    simulator.run()
    return [[(client, submitted_at.hex(), target) for client, submitted_at, target in pool.received] for pool in pools]


def shared_instants(pools):
    """``(clients, instant)`` of each instant on which more than one row arrives at a pool."""
    shared = {}
    for pool in pools:
        for client, submitted_at, target in pool:
            shared.setdefault((target, float.fromhex(submitted_at) + DELAY), []).append(client)
    return [(clients, instant) for (_, instant), clients in shared.items() if len(clients) > 1]


@pytest.mark.parametrize("slice_rows", [generator_module._SLICE_ROWS, 7])
@pytest.mark.parametrize("mix", sorted(MIXES))
def test_every_pool_receives_what_the_eager_chain_delivered(mix, slice_rows, monkeypatch):
    monkeypatch.setattr(generator_module, "_SLICE_ROWS", slice_rows)
    expected = oracle(*MIXES[mix])
    assert production(*MIXES[mix]) == expected
    assert sum(map(len, expected)) == pytest.approx(MIXES[mix][0] * MIXES[mix][2], abs=MIXES[mix][1])


def test_the_mixes_hold_the_ties_they_are_chosen_for():
    faultless = shared_instants(oracle(*MIXES["faultless"]))
    # The 150 tx/s client (11) meets a 350 tx/s one, and the oracle
    # delivers it first: its previous arrival was the earlier.
    assert any(clients[0] == 11 for clients, _ in faultless)
    assert all(sorted(clients) == [3, 11] for clients, _ in faultless)
    eighteen = shared_instants(oracle(*MIXES["eighteen"]))
    assert len(eighteen) == 105 and all(clients == [0, 17] for clients, _ in eighteen)


def test_ordering_a_shared_instant_by_start_order_alone_is_caught():
    mutant = load_mutant(generator_module, [("key=delivery,", "key=lambda row: 0,")])
    rate, targets, duration = MIXES["faultless"]
    assert production(rate, targets, duration, mutant) != oracle(rate, targets, duration)
    # ... and the intact source, loaded the same way, agrees.
    intact = load_mutant(generator_module, [])
    assert production(rate, targets, duration, intact) == oracle(rate, targets, duration)
