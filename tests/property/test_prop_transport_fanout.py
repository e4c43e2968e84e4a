"""The transport's fan-out against the definitional oracle.

``tests/reference_transport.py`` computes one message's delay by calling
the latency and synchrony models' public methods, and defines a fan-out
as n sends in registration order.  For generated endpoints, models,
partitions, stacked disturbance windows, link degradation, crashes and
scripts that register nodes and swap the latency model *between*
fan-outs, ``Network.broadcast`` and a loop of ``Network.send`` must
each leave what the oracle leaves: the same heap
entries (time bit for bit, sequence, recipient, sender, message), the
same deliveries, the same RNG state and the same ``NetworkStats``.
"""

import ast
import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tests.reference_transport as reference_transport
from repro.network import transport
from repro.network.latency import GeoLatencyModel
from repro.network.simulator import Simulator
from repro.network.synchrony import AlwaysSynchronous, PartialSynchrony
from repro.types import Region
from tests.doubles import UniformLatencyModel
from tests.mutants import load_mutant
from tests.reference_transport import ReferenceNetwork

MODES = ("broadcast", "send")
REGIONS = ("us-east-1", "eu-west-1", "eu-west-2", "ap-southeast-2", "ap-northeast-1", "moon-base-1")


def test_the_oracle_imports_only_the_standard_library():
    tree = ast.parse(Path(reference_transport.__file__).read_text())
    imported = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported == {"__future__"}


# -- scripts -----------------------------------------------------------------------------

def build_model(spec):
    kind, argument = spec
    if kind == "geo":
        return GeoLatencyModel(jitter_fraction=argument)
    if kind == "geo-extra":
        return GeoLatencyModel(extra_latency={"eu-west-1": argument, "moon-base-1": 0.011})
    return UniformLatencyModel(base_delay=argument, jitter=argument / 4.0)


def build_synchrony(spec):
    kind, delta = spec
    if kind == "always":
        return AlwaysSynchronous(delta=delta)
    return PartialSynchrony(gst=0.6, delta=delta, adversarial_probability=0.5)


small = st.floats(min_value=0.0, max_value=0.05, allow_nan=False)
regions = st.sampled_from(REGIONS)
models = st.one_of(
    st.tuples(st.just("geo"), st.sampled_from((0.0, 0.1, 0.9))),
    st.tuples(st.just("geo-extra"), st.sampled_from((0.0, 0.25))),
    st.tuples(st.just("uniform"), st.sampled_from((0.001, 0.05))),
)
# A delta of 0.03 is below most geo delays, so the cap is what gets scheduled.
synchronies = st.tuples(st.sampled_from(("always", "partial")), st.sampled_from((0.03, 2.0)))
picks = st.integers(min_value=0, max_value=63)  # an index into the nodes registered so far


def operations():
    return st.one_of(
        st.tuples(st.just("fanout"), picks, st.booleans()),
        st.tuples(st.just("fanout"), picks, st.booleans()),  # listed twice: drawn twice as often
        st.tuples(st.just("send"), picks, picks),
        st.tuples(st.just("advance"), st.sampled_from((0.0, 0.004, 0.05, 0.7))),
        st.tuples(st.just("crash"), picks, st.booleans()),
        st.tuples(st.just("partition"), st.none() | st.lists(st.integers(0, 2), min_size=1, max_size=8)),
        st.tuples(st.just("open"), small, st.sampled_from((0.0, 0.3, 0.6))),
        st.tuples(st.just("close"), picks),
        st.tuples(st.just("degrade"), picks, small, small),
        st.tuples(st.just("register"), regions),
        st.tuples(st.just("model"), models),
    )


scripts = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "regions": st.lists(regions, min_size=1, max_size=7),
        # Ids are not registration positions: the row is ordered by registration.
        "id_stride": st.sampled_from((1, 3, -1)),
        "model": models,
        "synchrony": synchronies,
        "operations": st.lists(operations(), min_size=1, max_size=24),
    }
)


class Production:
    """``Network`` behind the oracle's interface, recording what it pushes."""

    def __init__(self, network_class, script, mode):
        self.mode = mode
        self.simulator = Simulator(seed=script["seed"])
        self.network = network_class(
            self.simulator, build_model(script["model"]), build_synchrony(script["synchrony"])
        )
        self.ids = []
        self.scheduled = []
        self.delivered = []
        self._seen = 0

    def register(self, node_id, region):
        self.ids.append(node_id)
        self.network.register(
            node_id,
            region,
            lambda sender, message, node_id=node_id: self.delivered.append(
                (self.simulator.now, node_id, sender, message)
            ),
        )

    def fanout(self, sender, message, include_self):
        if self.mode == "broadcast":
            self.network.broadcast(sender, message, include_self=include_self)
        else:
            self.network.stats.broadcasts += 1
            for node_id in self.ids:
                if include_self or node_id != sender:
                    self.network.send(sender, node_id, message)

    def capture(self):
        """Collect the raw heap entries pushed since the last call."""
        simulator = self.simulator
        fresh = sorted(
            (entry for entry in simulator._heap if entry[1] >= self._seen), key=lambda entry: entry[1]
        )
        self._seen = simulator._next_sequence
        for time, sequence, handle, _callback, (destination, _stats, sender, message) in fresh:
            assert handle is None
            self.scheduled.append((time, sequence, destination.node_id, sender, message))

    def advance(self, until):
        self.simulator.run(until=until)


def play(script, mode, network_class=transport.Network):
    production = Production(network_class, script, mode)
    oracle = ReferenceNetwork(
        random.Random(script["seed"]), build_model(script["model"]), build_synchrony(script["synchrony"])
    )
    ids = production.ids
    tokens = []

    def register(region):
        node_id = 10 + script["id_stride"] * len(ids)
        production.register(node_id, Region(region))
        oracle.register(node_id, Region(region))

    for region in script["regions"]:
        register(region)
    network = production.network
    for index, operation in enumerate(script["operations"]):
        kind, *arguments = operation
        node_id = ids[arguments[0] % len(ids)] if arguments and isinstance(arguments[0], int) else None
        message = ("message", index)
        if kind == "fanout":
            production.fanout(node_id, message, arguments[1])
            oracle.broadcast(node_id, message, include_self=arguments[1])
        elif kind == "send":
            recipient = ids[arguments[1] % len(ids)]
            network.send(node_id, recipient, message)
            oracle.send(node_id, recipient, message)
        elif kind == "advance":
            until = production.simulator.now + arguments[0]
            production.advance(until)
            oracle.advance(until)
        elif kind == "crash":
            network.set_crashed(node_id, arguments[1])
            oracle.set_crashed(node_id, arguments[1])
        elif kind == "partition":
            if arguments[0] is None:
                network.clear_partition()
                oracle.set_partition(None)
            else:
                # The generated list assigns the first nodes to groups; the
                # rest stay unlisted (the implicit extra group).
                groups = [
                    [ids[position] for position, group in enumerate(arguments[0][: len(ids)]) if group == wanted]
                    for wanted in range(3)
                ]
                network.set_partition(groups)
                oracle.set_partition(groups)
        elif kind == "open":
            tokens.append((network.add_disturbance(*arguments), oracle.add_disturbance(*arguments)))
        elif kind == "close":
            if tokens:
                ours, theirs = tokens.pop(arguments[0] % len(tokens))
                network.remove_disturbance(ours)
                oracle.remove_disturbance(theirs)
        elif kind == "degrade":
            network.set_link_degradation(node_id, arguments[1], arguments[2])
            oracle.set_link_degradation(node_id, arguments[1], arguments[2])
        elif kind == "register":
            register(arguments[0])
        elif kind == "model":
            network.latency_model = build_model(arguments[0])
            oracle.latency_model = build_model(arguments[0])
        production.capture()
    production.advance(production.simulator.now + 5.0)
    oracle.advance(production.simulator.now)
    return production, oracle


def differences(production, oracle):
    """Names of what the production run left differently from the oracle."""
    checks = {
        "heap entries": production.scheduled == oracle.scheduled,
        "deliveries": production.delivered == oracle.delivered,
        "rng state": production.simulator.rng.getstate() == oracle.rng.getstate(),
        "stats": dataclasses.asdict(production.network.stats) == oracle.stats,
    }
    return [name for name, same in checks.items() if not same]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=120, deadline=None)
@given(script=scripts)
def test_fanout_leaves_what_the_oracle_leaves(mode, script):
    production, oracle = play(script, mode)
    assert differences(production, oracle) == []


# -- fixed scripts: every generated family at least once, and what the mutants must meet ---------

def fixed_script(model, synchrony, operations, regions=REGIONS[:5]):
    return {
        "seed": 7, "regions": list(regions), "id_stride": 3,
        "model": model, "synchrony": synchrony, "operations": operations,
    }


FIXED_SCRIPTS = {
    "geo-jitter-self": fixed_script(
        ("geo", 0.1), ("always", 2.0), [("fanout", 1, True), ("fanout", 2, False), ("send", 0, 3)]
    ),
    "geo-extra-capped": fixed_script(
        ("geo-extra", 0.25), ("always", 0.03), [("fanout", 1, True), ("send", 1, 1)]
    ),
    "loss-and-window-jitter": fixed_script(
        ("geo", 0.1), ("always", 2.0),
        [("open", 0.02, 0.3), ("open", 0.04, 0.6), ("fanout", 0, True), ("close", 0), ("fanout", 3, True)],
    ),
    "partition-crash-degrade": fixed_script(
        ("geo", 0.9), ("partial", 2.0),
        [
            ("partition", [0, 0, 1]), ("degrade", 1, 0.01, 0.02), ("degrade", 2, 0.03, 0.0),
            ("fanout", 1, True), ("crash", 1, True), ("fanout", 1, True), ("advance", 0.7),
            ("partition", None), ("crash", 4, True), ("fanout", 2, False),
        ],
    ),
    "register-then-swap-model": fixed_script(
        ("geo", 0.1), ("always", 2.0),
        [
            ("fanout", 0, True), ("register", "ap-northeast-1"), ("fanout", 0, True),
            ("model", ("geo-extra", 0.25)), ("fanout", 0, True), ("model", ("uniform", 0.05)),
            ("fanout", 0, True), ("send", 5, 0),
        ],
    ),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(FIXED_SCRIPTS))
def test_fixed_scripts(name, mode):
    production, oracle = play(FIXED_SCRIPTS[name], mode)
    assert oracle.scheduled, "the script schedules nothing"
    assert differences(production, oracle) == []


# -- source mutants --------------------------------------------------------------------------------

LOSS_DROP = (
    "            if destination is not source and loss_rate > 0.0 and random() < loss_rate:\n"
    "                stats.messages_dropped += 1\n"
    "                stats.loss_drops += 1\n"
    "                continue\n"
)

SOURCE_MUTANTS = {
    "fan-out-minus-jitter-dropped": [
        ("delay += jitter * 2.0 * random() - jitter", "delay += jitter * 2.0 * random()"),
    ],
    "loss-draw-after-delay-draw": [
        ("                if loss_rate > 0.0 and random() < loss_rate:", "                if False:"),
        (
            "            sequence = simulator._next_sequence\n",
            LOSS_DROP + "            sequence = simulator._next_sequence\n",
        ),
    ],
    "self-delivery-through-the-pair-row": [
        ("            if destination is source:\n", "            if False:\n"),
    ],
}


@pytest.mark.parametrize("mutant", sorted(SOURCE_MUTANTS))
def test_fixed_scripts_kill_the_source_mutant(mutant):
    network_class = load_mutant(transport, SOURCE_MUTANTS[mutant]).Network
    killed = [
        (name, mode)
        for name, script in sorted(FIXED_SCRIPTS.items())
        for mode in MODES
        if differences(*play(script, mode, network_class))
    ]
    assert killed, f"{mutant} survives every fixed script"
    # ... and the unmutated source, loaded the same way, survives them all.
    intact = load_mutant(transport, []).Network
    for script in FIXED_SCRIPTS.values():
        for mode in MODES:
            assert differences(*play(script, mode, intact)) == []
