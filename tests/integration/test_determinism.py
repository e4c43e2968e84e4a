"""A run is a pure function of its spec: nothing from outside it reaches what it writes.

Every registered scenario, shrunk by ``--smoke``, runs through the
``repro.scenarios`` CLI with a trace, and so do the three whose faults
are crashes only on the lockstep backend.  Each run's artifact and trace
are compared line by line:

* *hash seed* -- two fresh processes under ``PYTHONHASHSEED`` 1 and 2;
* *global random state* -- this process, the ``random`` module reseeded,
  against the fresh run;
* *wall clock* -- this process, every ``time`` clock a million seconds
  ahead, against the fresh run.

This process has run other tests first, so the last two also hold that
no run leaks state into the next: no line is skipped, the ``memo.*``
counters included, as a run keeps its memos on its own committee and
transport.  The defect plants of README
"Determinism" (:data:`tests.determinism_probe.PLANTS`), applied in child
processes, are each caught by one of the three checks.  The socket
backend's artifacts carry host time and are held to the lockstep oracle
elsewhere.

The fresh runs also hold the per-transaction outputs of every point --
the ``float.hex`` of the latency average, standard deviation, p50, p95
and throughput, and the committed and submitted counts -- to
``per_transaction_pins.json``: crash gaps, partition failover and batch
cuts all pass through the pools, the collector and the statistics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios.registry import all_scenarios
from tests.determinism_probe import PLANTS, perturbed, run_scenarios

ROOT = Path(__file__).resolve().parents[2]
LOCKSTEP_RUNS = ("faultless@lockstep", "figure2-faults@lockstep", "load-spike@lockstep")
RUNS = (*all_scenarios(), *LOCKSTEP_RUNS)
CLOCK_OFFSET = 1e6
PINS = json.loads(Path(__file__).with_name("per_transaction_pins.json").read_text())
# Pinned name -> the report field it reads, as a double.
PINNED_FLOATS = {
    "avg": "avg_latency_s",
    "stdev": "stdev_latency_s",
    "p50": "p50_latency_s",
    "p95": "p95_latency_s",
    "throughput": "throughput_tps",
}

# Each check as the options of its two sides: (hash seed, probe options).
# Every side fixes the random state, so only the checked input differs.
CHECKS = {
    "hash seed": (("1", ["--random-seed", "1"]), ("2", ["--random-seed", "1"])),
    "random state": (("1", ["--random-seed", "1"]), ("1", ["--random-seed", "2"])),
    "wall clock": (
        ("1", ["--random-seed", "1"]),
        ("1", ["--random-seed", "1", "--clock-offset", str(CLOCK_OFFSET)]),
    ),
}

# The check that catches each defect plant, and a run it shows in.
CAUGHT = {
    "R1": ("random state", "lossy-recovery"),
    "R2": ("random state", "faultless"),
    "R3": ("random state", "faultless"),
    "R4": ("hash seed", "faultless"),
    "W1": ("wall clock", "faultless"),
    "W2": ("wall clock", "faultless"),
    "W3": ("wall clock", "faultless"),
    "U1": ("hash seed", "faultless"),
    "U3": ("hash seed", "rolling-crash-churn"),
}


def probe(outdir, runs, options, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "tests.determinism_probe", str(outdir), *runs, *options],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def run_sides(sides, runs, check, extra=()):
    """Both sides of ``check`` over ``runs``, as two child processes at once."""
    processes = [
        probe(side, runs, [*options, *extra], hash_seed)
        for side, (hash_seed, options) in zip(sides, CHECKS[check])
    ]
    for process in processes:
        _, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr


def written(outdir, run, suffix):
    return Path(outdir, run + suffix).read_text().splitlines()


def assert_same(left, right, run):
    # Compared line by line, so a failure names the first line that differs.
    for suffix in (".json", ".jsonl"):
        first, second = (written(side, run, suffix) for side in (left, right))
        assert first == second, f"{run}{suffix} differs"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """Every run in two fresh processes, under hash seeds 1 and 2."""
    sides = [tmp_path_factory.mktemp(f"hashseed-{seed}") for seed in ("1", "2")]
    run_sides(sides, RUNS, "hash seed")
    return sides


@pytest.mark.parametrize("run", RUNS)
def test_hash_seed_does_not_reach_the_artifact(fresh, run):
    assert_same(*fresh, run)


@pytest.mark.parametrize("run", RUNS)
def test_per_transaction_outputs_hold_their_pins(fresh, run):
    points = json.loads(Path(fresh[0], run + ".json").read_text())["points"]
    found = []
    for point in points:
        report = point["report"]
        row = {"label": point["label"]}
        row.update((name, float(report[field]).hex()) for name, field in PINNED_FLOATS.items())
        row["committed"] = report["committed_transactions"]
        row["submitted"] = report["submitted_transactions"]
        found.append(row)
    assert found == PINS[run]


@pytest.mark.parametrize("run", RUNS)
def test_global_random_state_does_not_reach_the_artifact(fresh, run, tmp_path):
    with perturbed(random_seed=2):
        run_scenarios(tmp_path, [run])
    assert_same(fresh[0], tmp_path, run)


@pytest.mark.parametrize("run", RUNS)
def test_wall_clock_does_not_reach_the_artifact(fresh, run, tmp_path):
    with perturbed(random_seed=1, clock_offset=CLOCK_OFFSET):
        run_scenarios(tmp_path, [run])
    assert_same(fresh[0], tmp_path, run)


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_a_defect_plant_is_caught(plant, tmp_path):
    """The planted runs complete, and the two sides of the check that
    names the plant write different artifacts or traces."""
    check, run = CAUGHT[plant]
    sides = [tmp_path / "left", tmp_path / "right"]
    run_sides(sides, [run], check, extra=["--plant", plant])
    differs = [
        suffix for suffix in (".json", ".jsonl")
        if written(sides[0], run, suffix) != written(sides[1], run, suffix)
    ]
    assert differs, f"{plant} left {run} identical under both sides of the {check} check"
