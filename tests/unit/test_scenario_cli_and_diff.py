"""Scenario CLI exit-code guarantees and the artifact diff subcommand."""

import json

import pytest

from repro.scenarios import get_scenario
from repro.scenarios.cli import main as cli_main
from repro.scenarios.diff import (
    DIFF_MATCH,
    DIFF_MISMATCH,
    diff_artifacts,
    load_artifact,
)
from repro.errors import ConfigurationError

from tests.cli_contract import assert_error_contract


def artifact(scenario_digest="d" * 64, points=(), spec=None):
    return {
        "artifact_version": 1,
        "scenario": dict(spec or {"name": "x", "seed": 2}),
        "scenario_digest": scenario_digest,
        "seeds": [2],
        "points": list(points),
    }


def point(label="p", seed=2, digest="a" * 64, ordered=10, throughput=100.0):
    return {
        "committee_size": 4,
        "protocol": "hammerhead",
        "load": 100.0,
        "seed": seed,
        "label": label,
        "report": {"throughput_tps": throughput, "avg_latency_s": 1.0},
        "ordering_digest": digest,
        "ordered_count": ordered,
    }


class TestCliExitCodes:
    """Invalid ``--spec`` files: non-zero exit, stderr message, clean stdout."""

    def test_missing_spec_file(self, capsys, tmp_path):
        assert_error_contract(
            cli_main,
            capsys,
            "run",
            "--spec",
            str(tmp_path / "nope.json"),
            match="cannot read spec file",
        )

    def test_malformed_json_spec(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert_error_contract(cli_main, capsys, "run", "--spec", str(path))

    def test_schema_invalid_spec(self, capsys, tmp_path):
        spec = get_scenario("faultless").to_dict()
        spec["committee_sizes"] = "not-a-list"
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(spec))
        assert_error_contract(cli_main, capsys, "describe", "--spec", str(path))

    def test_unknown_scenario_name(self, capsys):
        assert_error_contract(cli_main, capsys, "describe", "definitely-not-registered")

    def test_diff_unreadable_artifact(self, capsys, tmp_path):
        good = tmp_path / "a.json"
        good.write_text(json.dumps(artifact()))
        assert_error_contract(
            cli_main, capsys, "diff", str(good), str(tmp_path / "missing.json")
        )


class TestDiffArtifacts:
    def test_identical_artifacts_match(self):
        left = artifact(points=[point()])
        code, lines = diff_artifacts(left, json.loads(json.dumps(left)))
        assert code == DIFF_MATCH
        assert any("[OK]" in line for line in lines)

    def test_ordering_divergence_is_a_mismatch(self):
        left = artifact(points=[point(digest="a" * 64)])
        right = artifact(points=[point(digest="b" * 64, throughput=90.0)])
        code, lines = diff_artifacts(left, right)
        assert code == DIFF_MISMATCH
        text = "\n".join(lines)
        assert "[DIVERGED]" in text
        assert "throughput_tps" in text  # per-point delta reported

    def test_missing_point_is_a_mismatch(self):
        left = artifact(points=[point(label="a"), point(label="b")])
        right = artifact(points=[point(label="a")])
        code, lines = diff_artifacts(left, right)
        assert code == DIFF_MISMATCH
        assert any("[MISSING]" in line for line in lines)

    def test_different_scenario_digests_explain_spec(self):
        left = artifact(spec={"name": "x", "seed": 2})
        right = artifact(scenario_digest="e" * 64, spec={"name": "x", "seed": 9})
        code, lines = diff_artifacts(left, right)
        assert code == DIFF_MISMATCH
        text = "\n".join(lines)
        assert "scenario digests differ" in text
        assert "seed: 2 -> 9" in text

    def test_nested_spec_difference_reported(self):
        left = artifact(spec={"name": "x", "workload": {"shape": "constant"}})
        right = artifact(
            scenario_digest="e" * 64,
            spec={"name": "x", "workload": {"shape": "burst"}},
        )
        code, lines = diff_artifacts(left, right)
        assert code == DIFF_MISMATCH
        assert any("workload.shape" in line for line in lines)

    def test_prefix_mode_accepts_consistent_divergence(self):
        """Two runs that diverge after a loss window but agree on every
        aligned checkpoint pass in prefix mode (strict mode fails)."""
        checkpoints = [[64, "c" * 64], [128, "d" * 64]]
        left_point = dict(point(digest="a" * 64, ordered=150))
        right_point = dict(point(digest="b" * 64, ordered=170))
        left_point["ordering_checkpoints"] = checkpoints
        right_point["ordering_checkpoints"] = checkpoints
        left = artifact(points=[left_point])
        right = artifact(points=[right_point])
        assert diff_artifacts(left, right)[0] == DIFF_MISMATCH
        code, lines = diff_artifacts(left, right, prefix=True, min_prefix=64)
        assert code == DIFF_MATCH
        assert any("[OK]" in line and "consistent" in line for line in lines)

    def test_prefix_mode_gates_on_min_prefix(self):
        """A genuine checkpoint contradiction below min_prefix fails."""
        left_point = dict(point(digest="a" * 64, ordered=150))
        right_point = dict(point(digest="b" * 64, ordered=170))
        left_point["ordering_checkpoints"] = [[64, "c" * 64], [128, "d" * 64]]
        right_point["ordering_checkpoints"] = [[64, "c" * 64], [128, "X" * 64]]
        left = artifact(points=[left_point])
        right = artifact(points=[right_point])
        code, lines = diff_artifacts(left, right, prefix=True, min_prefix=64)
        assert code == DIFF_MATCH
        assert any("[PREFIX]" in line for line in lines)
        code, lines = diff_artifacts(left, right, prefix=True, min_prefix=100)
        assert code == DIFF_MISMATCH
        assert any("[DIVERGED]" in line for line in lines)

    def test_prefix_mode_tolerates_spec_differences(self):
        """Prefix mode exists to compare *different* scenarios (one loss
        window under two scoring rules): scenario digests may differ
        without failing."""
        shared = dict(point(digest="a" * 64))
        left = artifact(spec={"name": "x", "scoring": "hammerhead"},
                        points=[shared])
        right = artifact(scenario_digest="e" * 64,
                         spec={"name": "x", "scoring": "completeness"},
                         points=[json.loads(json.dumps(shared))])
        code, lines = diff_artifacts(left, right, prefix=True)
        assert code == DIFF_MATCH
        text = "\n".join(lines)
        assert "allowed in prefix mode" in text
        assert "scoring: 'hammerhead' -> 'completeness'" in text

    def test_load_artifact_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"some": "document"}))
        with pytest.raises(ConfigurationError):
            load_artifact(str(path))
