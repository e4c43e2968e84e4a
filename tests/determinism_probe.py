"""Run registered scenarios and keep what they write, for the determinism tests.

    python -m tests.determinism_probe OUTDIR [--plant ID] [--random-seed N]
        [--clock-offset SECONDS] RUN [RUN ...]

A run is a registered scenario name, or ``NAME@BACKEND`` for another
backend than ``sim``.  Each runs shrunk by ``--smoke`` through the
``repro.scenarios`` CLI and leaves ``OUTDIR/RUN.json`` (the artifact)
and ``OUTDIR/RUN.jsonl`` (its trace).  ``--random-seed`` reseeds the
``random`` module before each run, ``--clock-offset`` moves every
``time`` clock ahead, and ``--plant`` applies one of :data:`PLANTS`
before anything runs.  ``tests/integration/test_determinism.py`` drives
it in child processes and calls :func:`run_scenarios` and
:func:`perturbed` in its own.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import random
import sys
import time
from pathlib import Path

from tests.mutants import load_mutant

# The defect rows of README "Determinism": each one-line edit makes a run
# depend on something outside its spec.  ``(module, function, edit, the
# module the edited line needs)``.
PLANTS = {
    "R1": ("repro.node.synchronizer", "Synchronizer._random_peer",
           ("return self.simulator.rng.choice(peers)", "return random.choice(peers)"), "random"),
    "R2": ("repro.sim.runner", "SimulationRunner._start_nodes",
           ("jitter = self.simulator.rng.uniform(0.0, 0.020)", "jitter = random.uniform(0.0, 0.020)"), "random"),
    "R3": ("repro.schedule.round_robin", "initial_schedule",
           ("rng = random.Random(seed)", "rng = random.Random()"), None),
    "R4": ("repro.schedule.round_robin", "initial_schedule",
           ("rng = random.Random(seed)", 'rng = random.Random(hash(("schedule", seed)))'), None),
    "W1": ("repro.consensus.bullshark", "BullsharkConsensus._commit_anchor",
           ("        now = self.clock()\n        ordered_sources",
            "        now = time.monotonic()\n        ordered_sources"),
           "time"),
    "W2": ("repro.obs.trace", "MemoryTracer.emit",
           ('{"kind": kind, "t": self.clock()}', '{"kind": kind, "t": self.clock(), "wall": time.perf_counter()}'),
           "time"),
    "W3": ("repro.node.validator", "ValidatorNode._schedule_advance",
           ("            delay = 0.0\n\n        def advance() -> None:",
            "            delay = 0.0\n        delay += (time.perf_counter_ns() % 1000) * 1e-9\n\n"
            "        def advance() -> None:"),
           "time"),
    "U1": ("repro.consensus.bullshark", "BullsharkConsensus._commit_anchor",
           ("        for vertex in ordered:\n", "        for vertex in set(ordered):\n"), None),
    "U3": ("repro.node.synchronizer", "Synchronizer.on_response",
           ("for vertex in sorted(vertices, key=lambda vertex: vertex.round):",
            "for vertex in sorted(set(vertices), key=lambda vertex: vertex.round):"), None),
}

CLOCKS = ("time", "monotonic", "perf_counter", "time_ns", "monotonic_ns", "perf_counter_ns")


def apply_plant(plant: str) -> None:
    """Give the planted function the mutant's code, in place: every
    reference to it, bound or imported by name, runs the edit."""
    module_name, qualname, edit, needs = PLANTS[plant]
    module = importlib.import_module(module_name)
    mutant = load_mutant(module, [edit])
    if needs is not None:
        setattr(module, needs, importlib.import_module(needs))
    target, planted = module, mutant
    for name in qualname.split("."):
        target, planted = getattr(target, name), getattr(planted, name)
    target.__code__ = planted.__code__


def _ahead(clock, offset):
    return lambda: clock() + offset


@contextlib.contextmanager
def perturbed(random_seed=None, clock_offset=0.0):
    """The ``random`` module reseeded and every ``time`` clock moved
    ``clock_offset`` seconds ahead, both put back on exit."""
    state = random.getstate()
    clocks = {name: getattr(time, name) for name in CLOCKS}
    if random_seed is not None:
        random.seed(random_seed)
    if clock_offset:
        for name, clock in clocks.items():
            offset = int(clock_offset * 10**9) if name.endswith("_ns") else clock_offset
            setattr(time, name, _ahead(clock, offset))
    try:
        yield
    finally:
        random.setstate(state)
        for name, clock in clocks.items():
            setattr(time, name, clock)


def run_scenarios(outdir, runs) -> None:
    from repro.scenarios.cli import main

    outdir = Path(outdir)
    for run in runs:
        name, _, backend = run.partition("@")
        argv = ["run", name, "--smoke", "--backend", backend or "sim", "--parallelism", "1",
                "--output", str(outdir / f"{run}.json"), "--trace", str(outdir / f"{run}.jsonl")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{run}: the scenarios CLI exited with {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.determinism_probe")
    parser.add_argument("outdir")
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--plant", choices=sorted(PLANTS))
    parser.add_argument("--random-seed", type=int)
    parser.add_argument("--clock-offset", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.plant:
        apply_plant(args.plant)
    for run in args.runs:
        with perturbed(args.random_seed, args.clock_offset):
            run_scenarios(args.outdir, [run])
    return 0


if __name__ == "__main__":
    sys.exit(main())
