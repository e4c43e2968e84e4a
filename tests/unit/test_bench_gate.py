"""Unit tests for the bench regression gate (benchmarks/check_regression.py)."""

import json
import os
import sys

BENCHMARKS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
)
if BENCHMARKS_DIR not in sys.path:
    sys.path.insert(0, BENCHMARKS_DIR)

import check_regression  # noqa: E402


# The gate compares wall_s; a point built from an events/sec figure fires
# this many events, so its events/sec and its speed move together unless
# a test says otherwise.
EVENTS = 1_000_000.0


def fig1_point(load, eps, events=EVENTS):
    return {
        "input_load_tps": load,
        "events": events,
        "events_per_sec": eps,
        "wall_s": events / eps,
    }


def committee_point(size, load, eps, duration=20.0, digest=None, events=EVENTS):
    point = {
        "committee_size": size,
        "input_load_tps": load,
        "duration_s": duration,
        "events": events,
        "events_per_sec": eps,
        "wall_s": events / eps,
    }
    if digest is not None:
        point["ordering_digest"] = digest
    return point


def document(points=(), committee=()):
    return {"points": list(points), "committee_scaling": list(committee)}


class TestThresholdLogic:
    def test_identical_documents_pass(self):
        doc = document([fig1_point(4000.0, 100000.0)], [committee_point(25, 4000.0, 200000.0)])
        findings = check_regression.compare_documents(doc, doc, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_regression_beyond_threshold_fails(self):
        base = document([fig1_point(4000.0, 100000.0)])
        fresh = document([fig1_point(4000.0, 89000.0)])  # -11%
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert any(finding.fatal for finding in findings)

    def test_regression_within_threshold_passes(self):
        base = document([fig1_point(4000.0, 100000.0)])
        fresh = document([fig1_point(4000.0, 91000.0)])  # -9%
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_boundary_is_exclusive(self):
        # Exactly at the threshold (ratio == 1 - threshold) must pass:
        # the gate fails only on regressions *beyond* the tolerance.
        base = document([fig1_point(4000.0, 100000.0)])
        fresh = document([fig1_point(4000.0, 90000.0)])
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_improvement_passes(self):
        base = document(committee=[committee_point(25, 4000.0, 100000.0)])
        fresh = document(committee=[committee_point(25, 4000.0, 250000.0)])
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_wider_threshold_tolerates_more(self):
        base = document([fig1_point(4000.0, 100000.0)])
        fresh = document([fig1_point(4000.0, 70000.0)])  # -30%
        assert any(
            finding.fatal
            for finding in check_regression.compare_documents(fresh, base, 0.10)
        )
        assert not any(
            finding.fatal
            for finding in check_regression.compare_documents(fresh, base, 0.35)
        )


class TestWallClockIsTheGate:
    """events/sec is information: a change may remove events."""

    def test_same_events_more_wall_fails(self):
        base = document([fig1_point(4000.0, 100000.0)])
        fresh = document([fig1_point(4000.0, 100000.0)])
        fresh["points"][0]["wall_s"] *= 1.30
        fresh["points"][0]["events_per_sec"] /= 1.30
        findings = check_regression.compare_documents(fresh, base, 0.10)
        fatal = [finding for finding in findings if finding.fatal]
        assert fatal and "slower" in fatal[0].message

    def test_fewer_events_less_wall_passes(self):
        # 70% of the events gone and the stage 20% faster: events/sec
        # reads -62%, and the gate passes.
        base = document(
            [fig1_point(4000.0, 100000.0)], [committee_point(25, 4000.0, 200000.0)]
        )
        fresh = document(
            [fig1_point(4000.0, 37500.0, events=0.3 * EVENTS)],
            [committee_point(25, 4000.0, 75000.0, events=0.3 * EVENTS)],
        )
        assert fresh["points"][0]["wall_s"] < base["points"][0]["wall_s"]
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)
        rows = check_regression.stage_deltas(fresh, base)
        assert [row[0] for row in rows] == ["fig1@4000tps", "committee25@4000tps"]
        assert all(row[3] > 1.0 and row[5] < row[4] for row in rows)
        assert "fresh ev/s" in check_regression.render_delta_table(rows)[0]

    def test_a_stage_without_wall_s_is_reported_not_gated(self):
        base = document([{"input_load_tps": 4000.0, "events_per_sec": 100000.0}])
        fresh = document([{"input_load_tps": 4000.0, "events_per_sec": 10000.0}])
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)
        assert any("no wall_s" in finding.message for finding in findings)

    def test_fig1_points_of_another_duration_are_another_stage(self):
        base = dict(document([fig1_point(4000.0, 100000.0)]), duration_s=20.0)
        fresh = dict(document([fig1_point(4000.0, 25000.0)]), duration_s=5.0)
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_default_baseline_is_committed(self):
        assert os.path.basename(check_regression.DEFAULT_BASELINE) == "BENCH_PR17.json"
        with open(check_regression.DEFAULT_BASELINE, encoding="utf-8") as handle:
            baseline = json.load(handle)
        assert baseline["calibration"]["cpu_score"] > 0
        assert all(point["wall_s"] > 0 for point in baseline["points"])
        assert all(point["wall_s"] > 0 for point in baseline["committee_scaling"])


class TestStageMatching:
    def test_subset_smoke_document_passes(self):
        base = document(
            [fig1_point(1000.0, 90000.0), fig1_point(4000.0, 100000.0)],
            [committee_point(25, 4000.0, 200000.0), committee_point(50, 4000.0, 150000.0)],
        )
        fresh = document(
            [fig1_point(4000.0, 99000.0)], [committee_point(25, 4000.0, 195000.0)]
        )
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)
        skipped = [finding for finding in findings if not finding.fatal]
        assert skipped  # the missing stages are reported, not failed

    def test_changed_duration_is_a_different_stage(self):
        base = document(committee=[committee_point(25, 4000.0, 200000.0, duration=20.0)])
        fresh = document(committee=[committee_point(25, 4000.0, 50000.0, duration=5.0)])
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_empty_fresh_document_is_fatal(self):
        findings = check_regression.compare_documents(
            document(), document([fig1_point(4000.0, 1.0)]), 0.10
        )
        assert any(finding.fatal for finding in findings)

    def test_a_baseline_stage_the_bench_no_longer_runs_is_ignored(self):
        """The committed baseline still holds a ``lossy_recovery`` stage,
        which the bench no longer runs: a fresh document without it
        passes, and no finding or delta row names it."""
        with open(check_regression.DEFAULT_BASELINE, encoding="utf-8") as handle:
            baseline = json.load(handle)
        assert "lossy_recovery" in baseline
        fresh = {key: value for key, value in baseline.items() if key != "lossy_recovery"}
        findings = check_regression.compare_documents(fresh, baseline, 0.10)
        assert not any(finding.fatal for finding in findings)
        assert not any("lossy" in finding.stage for finding in findings)
        rows = check_regression.stage_deltas(fresh, baseline)
        assert rows and not any("lossy" in row[0] for row in rows)

    def test_digest_mismatch_is_fatal_even_when_fast(self):
        base = document(committee=[committee_point(25, 4000.0, 100000.0, digest="a" * 64)])
        fresh = document(committee=[committee_point(25, 4000.0, 300000.0, digest="b" * 64)])
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert any(finding.fatal for finding in findings)


class TestMainEntry:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_pass_and_fail_exit_codes(self, tmp_path):
        base = self.write(
            tmp_path, "base.json", document([fig1_point(4000.0, 100000.0)])
        )
        good = self.write(
            tmp_path, "good.json", document([fig1_point(4000.0, 99000.0)])
        )
        bad = self.write(
            tmp_path, "bad.json", document([fig1_point(4000.0, 10000.0)])
        )
        assert check_regression.main([good, "--baseline", base]) == 0
        assert check_regression.main([bad, "--baseline", base]) == 1

    def test_threshold_env_override(self, tmp_path, monkeypatch):
        base = self.write(
            tmp_path, "base.json", document([fig1_point(4000.0, 100000.0)])
        )
        bad = self.write(
            tmp_path, "bad.json", document([fig1_point(4000.0, 80000.0)])
        )
        assert check_regression.main([bad, "--baseline", base]) == 1
        monkeypatch.setenv("REPRO_BENCH_REGRESSION_THRESHOLD", "0.5")
        assert check_regression.main([bad, "--baseline", base]) == 0

    def test_unreadable_input_is_a_clean_error(self, tmp_path, capsys):
        base = self.write(tmp_path, "base.json", document())
        assert check_regression.main([str(tmp_path / "missing.json"), "--baseline", base]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err

    def test_invalid_threshold_rejected(self, tmp_path):
        base = self.write(tmp_path, "base.json", document())
        assert check_regression.main([base, "--baseline", base, "--threshold", "1.5"]) == 2


def scenario_stage(digest="abc", points=None):
    return {
        "scenario": "reputation-gamer",
        "scenario_digest": digest,
        "points": points
        if points is not None
        else [{"label": "hammerhead - 4 nodes @ 300 tx/s", "ordering_digest": "d1" * 32}],
    }


class TestScenarioStageComparison:
    def test_matching_scenario_stage_passes(self):
        doc = dict(document([fig1_point(4000.0, 1.0)]), scenario_adversary=scenario_stage())
        findings = check_regression.compare_documents(doc, doc, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_ordering_digest_change_is_fatal(self):
        base = dict(document([fig1_point(4000.0, 1.0)]), scenario_adversary=scenario_stage())
        fresh = dict(
            document([fig1_point(4000.0, 1.0)]),
            scenario_adversary=scenario_stage(
                points=[{"label": "hammerhead - 4 nodes @ 300 tx/s", "ordering_digest": "e2" * 32}]
            ),
        )
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert any(finding.fatal and "scenario_adversary" in finding.stage for finding in findings)

    def test_changed_scenario_definition_skips(self):
        base = dict(document([fig1_point(4000.0, 1.0)]), scenario_smoke=scenario_stage("old"))
        fresh = dict(
            document([fig1_point(4000.0, 1.0)]),
            scenario_smoke=scenario_stage(
                "new",
                points=[{"label": "hammerhead - 4 nodes @ 300 tx/s", "ordering_digest": "e2" * 32}],
            ),
        )
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_skipped_stage_is_not_fatal(self):
        base = dict(document([fig1_point(4000.0, 1.0)]), scenario_adversary=scenario_stage())
        fresh = dict(
            document([fig1_point(4000.0, 1.0)]),
            scenario_adversary={"outcome": "skipped", "reason": "--skip-scenario"},
        )
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)


def calibrated(doc, cpu_score):
    out = dict(doc)
    out["calibration"] = {"cpu_score": cpu_score}
    return out


class TestCalibrationNormalization:
    def test_slower_host_passes_after_normalization(self):
        base = calibrated(document([fig1_point(4000.0, 100000.0)]), 1000.0)
        # Half-speed host, half the events/sec: raw -50%, normalized 0%.
        fresh = calibrated(document([fig1_point(4000.0, 50000.0)]), 500.0)
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)
        # Without calibration the same documents fail.
        raw = check_regression.compare_documents(fresh, base, 0.10, calibrate=False)
        assert any(finding.fatal for finding in raw)

    def test_real_regression_still_fails_on_slower_host(self):
        base = calibrated(document([fig1_point(4000.0, 100000.0)]), 1000.0)
        # Half-speed host but only a third of the events/sec: a genuine
        # ~33% regression after normalization.
        fresh = calibrated(document([fig1_point(4000.0, 33000.0)]), 500.0)
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert any(finding.fatal for finding in findings)

    def test_missing_calibration_falls_back_to_raw(self):
        base = document([fig1_point(4000.0, 100000.0)])
        fresh = calibrated(document([fig1_point(4000.0, 100000.0)]), 500.0)
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)
        assert any(
            finding.stage == "calibration" and "raw" in finding.message
            for finding in findings
        )

    def test_out_of_band_ratio_falls_back_to_raw(self):
        base = calibrated(document([fig1_point(4000.0, 100000.0)]), 1000.0)
        fresh = calibrated(document([fig1_point(4000.0, 100000.0)]), 10.0)
        assert check_regression.calibration_ratio(fresh, base) is None

    def test_calibration_ratio_in_band(self):
        base = calibrated({}, 1000.0)
        fresh = calibrated({}, 925.0)
        assert check_regression.calibration_ratio(fresh, base) == 0.925


def matrix_cell(attack, rule, digest, scenario_digest="s" * 64, label=None):
    return {
        "attack": attack,
        "rule": rule,
        "label": label or f"{attack}/{rule}",
        "scenario_digest": scenario_digest,
        "ordering_digest": digest,
    }


def with_matrix(doc, cells):
    out = dict(doc)
    out["scenario_matrix"] = {"cells": list(cells)}
    return out


class TestMatrixStageComparison:
    def _base_doc(self):
        return document([fig1_point(4000.0, 100000.0)])

    def test_matching_cells_pass(self):
        doc = with_matrix(
            self._base_doc(), [matrix_cell("gamer", "completeness", "a" * 64)]
        )
        findings = check_regression.compare_documents(doc, doc, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_cell_digest_change_is_fatal(self):
        base = with_matrix(
            self._base_doc(), [matrix_cell("gamer", "completeness", "a" * 64)]
        )
        fresh = with_matrix(
            self._base_doc(), [matrix_cell("gamer", "completeness", "b" * 64)]
        )
        findings = check_regression.compare_documents(fresh, base, 0.10)
        fatal = [finding for finding in findings if finding.fatal]
        assert fatal and "scenario_matrix:gamer/completeness" in fatal[0].stage

    def test_changed_attack_definition_skips_cell(self):
        base = with_matrix(
            self._base_doc(),
            [matrix_cell("gamer", "completeness", "a" * 64, scenario_digest="1" * 64)],
        )
        fresh = with_matrix(
            self._base_doc(),
            [matrix_cell("gamer", "completeness", "b" * 64, scenario_digest="2" * 64)],
        )
        findings = check_regression.compare_documents(fresh, base, 0.10)
        assert not any(finding.fatal for finding in findings)

    def test_missing_matrix_stage_skips(self):
        base = with_matrix(
            self._base_doc(), [matrix_cell("gamer", "completeness", "a" * 64)]
        )
        findings = check_regression.compare_documents(self._base_doc(), base, 0.10)
        assert not any(finding.fatal for finding in findings)
        assert any("scenario_matrix" in finding.stage for finding in findings)

