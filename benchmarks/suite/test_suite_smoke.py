"""Smoke test of the benchmark suite (tier 1, a few seconds).

Runs every workload at ``--smoke`` scale through the one command and
checks that what it emits is what BENCHMARK.json declares: the same
workload names, the same metric names, each with a unit, a direction
and (end to end) a bound.  Also the unit checks of the full-horizon
accounting, on synthetic commit and submission lists.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, SUITE_DIR)

import compare  # noqa: E402
import outcome  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONTRACT = compare.load_contract()


def run_suite(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "run.py"), "--smoke", *arguments],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True,
    )


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    path = tmp_path_factory.mktemp("suite") / "smoke.json"
    run_suite("--traced", "--output", str(path))
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_names_are_well_formed():
    names = [workload["name"] for workload in CONTRACT["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in CONTRACT[section]:
            names.append(metric["name"])
            assert metric["unit"], metric
            assert metric["better"] in ("lower", "higher"), metric
            if section == "end_to_end":
                assert 0.0 < metric["bound"] <= 0.25, metric
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in CONTRACT["end_to_end"])
    assert len(CONTRACT["per_layer"]) <= 128


def test_emitted_names_equal_declared_names(smoke_results):
    declared = [workload["name"] for workload in CONTRACT["workloads"]]
    assert sorted(smoke_results["workloads"]) == sorted(declared)
    for workload, entry in smoke_results["workloads"].items():
        assert entry["correct"], (workload, entry["errors"])
        assert entry["attempted"] >= 1
        for section in ("end_to_end", "per_layer"):
            units = {metric["name"]: metric["unit"] for metric in CONTRACT[section]}
            emitted = entry[section]
            assert set(emitted) == set(units), (workload, section, set(emitted) ^ set(units))
            for name, metric in emitted.items():
                assert metric["unit"] == units[name]
                assert isinstance(metric["value"], (int, float))
        shares = [v["value"] for k, v in entry["per_layer"].items() if k.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) < 0.01, workload


def check_driver_line(text: str, section: str) -> None:
    line = json.loads(text)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {metric["name"] for metric in CONTRACT[section]}
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_driver_line_of_one_workload(smoke_results):
    finished = run_suite("--workload", "faultless-c10", "--seed", "5", "--seconds", "1", "--trace", "0")
    check_driver_line(finished.stdout.strip().splitlines()[-1], "end_to_end")
    # ``--trace 1`` prints the same projection of the per-layer entry.
    check_driver_line(run.driver_line(smoke_results["workloads"]["faultless-c10"], True), "per_layer")


def test_commit_gap_counts_the_whole_horizon():
    # Regular commits: the longest gap is the cadence.
    assert outcome.max_commit_gap([6.0, 7.0, 8.0, 9.0, 10.0], 5.0, 10.0) == 1.0
    # Commits that stop at t=8 of a 30 s run: the silent tail counts.
    assert outcome.max_commit_gap([6.0, 7.0, 8.0], 5.0, 30.0) == 22.0
    # Nothing before t=9: warm-up -> first commit counts too.
    assert outcome.max_commit_gap([1.0, 9.0, 10.0], 5.0, 10.0) == 4.0
    # No commit at all inside the window.
    assert outcome.max_commit_gap([], 5.0, 30.0) == 25.0


def test_final_counts_use_the_submission_window():
    submitted = [1.0, 6.0, 7.0, 8.0, 20.0, 29.0]
    # Transactions submitted at 6 and 8 became final; 7 and 20 never did.
    attempted, failed = outcome.final_counts(submitted, [1.0, 6.0, 8.0, 29.0], 5.0, 25.0)
    assert (attempted, failed) == (4, 2)
