"""CLI contract for ``python -m repro.analysis``.

Mirrors the scenario-CLI conventions (tests/unit/test_scenario_cli_and_diff.py):
exit 0 on success, 1 on findings, 2 on operational errors with a single
``error: ...`` line on stderr and nothing on stdout.  Also the repo
self-check: ``check`` must exit 0 on this tree.
"""

import functools

from repro.analysis.cli import main as cli_main
from repro.cliutil import EXIT_FINDINGS, EXIT_OK

from tests.cli_contract import assert_error_contract
from tests.cli_contract import run_cli as _run_cli

run_cli = functools.partial(_run_cli, cli_main)


class TestRepoSelfCheck:
    def test_check_passes_on_this_repository(self, capsys):
        code, out, err = run_cli(capsys, "check")
        assert code == EXIT_OK
        assert err == ""
        assert "OK: 0 finding(s)" in out

    def test_check_subset_of_rules(self, capsys):
        code, out, err = run_cli(capsys, "check", "--rules", "DET001", "--no-baseline")
        assert code == EXIT_OK
        assert err == ""

    def test_purity_map_prints_closure_and_digest(self, capsys):
        code, out, err = run_cli(capsys, "purity-map")
        assert code == EXIT_OK
        assert err == ""
        assert "purity roots" in out
        assert "repro.consensus.bullshark" in out
        assert "digest" in out


class TestExplain:
    def test_explain_prints_rationale(self, capsys):
        code, out, err = run_cli(capsys, "explain", "DET003")
        assert code == EXIT_OK
        assert err == ""
        assert out.strip()

    def test_explain_unknown_rule_is_an_error(self, capsys):
        assert_error_contract(
            cli_main, capsys, "explain", "DET999", match="unknown analysis rule"
        )


class TestErrorAndFindingExits:
    def test_missing_tree_exits_2_with_stderr(self, capsys, tmp_path):
        assert_error_contract(
            cli_main, capsys, "--repo-root", str(tmp_path), "check", match="does not exist"
        )

    def test_findings_exit_1_with_report_on_stdout(self, capsys, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "tags.py").write_text(
            "import uuid\n\n\ndef tag() -> str:\n    return str(uuid.uuid4())\n"
        )
        code, out, err = run_cli(capsys, "--repo-root", str(tmp_path), "check")
        assert code == EXIT_FINDINGS
        assert err == ""
        assert "repro/tags.py:1: DET001" in out
        assert "FAIL: 1 finding(s)" in out

    def test_waived_findings_do_not_fail_the_check(self, capsys, tmp_path):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "tags.py").write_text(
            "# det: waive[DET001] fixture justification\nimport uuid\n"
        )
        code, out, err = run_cli(capsys, "--repo-root", str(tmp_path), "check")
        assert code == EXIT_OK
        assert err == ""
        assert "1 waived" in out
