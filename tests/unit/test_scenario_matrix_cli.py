"""The attack x rule matrix module and its CLI surface (describe/matrix)."""

import json

from repro.scenarios import get_scenario
from repro.scenarios.cli import main as cli_main
from repro.scenarios.matrix import (
    DEFAULT_MATRIX_ATTACKS,
    format_matrix_table,
    matrix_spec,
    run_matrix,
    summarize_matrix,
)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cell(attack, rule, demoted, count, first, label=None, digest="a" * 64):
    return {
        "attack": attack,
        "rule": rule,
        "label": label or f"{attack}/{rule}",
        "scenario_digest": "s" * 64,
        "ordering_digest": digest,
        "culprits_demoted": demoted,
        "culprit_count": count,
        "first_demotion_round": first,
    }


class TestMatrixAssembly:
    def test_default_attacks_exist_in_registry(self):
        for attack in DEFAULT_MATRIX_ATTACKS:
            assert get_scenario(attack)

    def test_matrix_spec_restricts_protocols_and_sets_axis(self):
        spec = matrix_spec("reputation-gamer", ("hammerhead", "completeness"))
        assert spec.protocols == ("hammerhead",)
        assert spec.scoring_rules == ("hammerhead", "completeness")

    def test_summary_keeps_sharpest_verdict(self):
        cells = [
            cell("a", "r", 0, 3, None),
            cell("a", "r", 3, 3, 42),
            cell("a", "r", 3, 3, 22),
        ]
        assert summarize_matrix(cells) == {"a": {"r": "3/3@22"}}

    def test_summary_never_demoted_has_no_round(self):
        assert summarize_matrix([cell("a", "r", 0, 2, None)]) == {"a": {"r": "0/2"}}

    def test_format_table_lists_every_attack_and_rule(self):
        document = {
            "attacks": ["a", "b"],
            "rules": ["hammerhead", "completeness"],
            "summary": {"a": {"hammerhead": "1/1@22"}},
        }
        table = format_matrix_table(document)
        assert "hammerhead" in table and "completeness" in table
        assert "1/1@22" in table
        # Missing cells render as '-'.
        assert "-" in table.splitlines()[-1]

    def test_run_matrix_smoke_produces_cells_and_summary(self):
        document = run_matrix(
            attacks=("reputation-gamer",),
            rules=("hammerhead", "completeness"),
            smoke=True,
            parallelism=1,
        )
        assert document["attacks"] == ["reputation-gamer"]
        assert document["rules"] == ["hammerhead", "completeness"]
        assert len(document["cells"]) == 2
        for matrix_cell in document["cells"]:
            assert matrix_cell["ordering_digest"]
            assert matrix_cell["rule"] in ("hammerhead", "completeness")
            assert matrix_cell["rounds_until_demotion"]
        assert "reputation-gamer" in document["summary"]
        assert "reputation-gamer" in document["row_digests"]


class TestMatrixCli:
    def test_matrix_subcommand_writes_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "matrix.json"
        code, out, err = run_cli(
            capsys,
            "matrix",
            "--smoke",
            "--attacks",
            "reputation-gamer",
            "--rules",
            "hammerhead",
            "--parallelism",
            "1",
            "--output",
            str(out_path),
        )
        assert code == 0
        assert "attack \\ rule" in out
        document = json.loads(out_path.read_text())
        assert document["matrix_version"] == 1
        assert document["smoke"] is True

    def test_unknown_rule_exits_nonzero_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "matrix", "--rules", "not-a-rule", "--attacks", "reputation-gamer"
        )
        assert code != 0
        assert "unknown scoring rule" in err

    def test_unknown_attack_exits_nonzero_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "matrix", "--attacks", "not-a-scenario")
        assert code != 0
        assert "unknown scenario" in err


class TestDescribeRendering:
    def test_describe_renders_scoring_rule(self, capsys):
        code, out, err = run_cli(capsys, "describe", "reputation-gamer")
        assert code == 0
        assert "scoring rule: hammerhead" in out

    def test_describe_renders_coalition_fault_kinds(self, capsys):
        for name, marker in (
            ("adaptive-dos", "adaptive leader DoS"),
            ("colluding-silence", "colluding silence"),
            ("coalition-gaming", "coalition reputation gaming"),
            ("adaptive-equivocation", "adaptive equivocation"),
        ):
            code, out, err = run_cli(capsys, "describe", name)
            assert code == 0, name
            assert marker in out, name
            if name != "adaptive-equivocation":
                assert "coordinated coalition" in out, name

    def test_describe_renders_scoring_axis(self, capsys, tmp_path):
        spec = get_scenario("reputation-gamer").with_overrides(
            scoring_rules=("hammerhead", "completeness")
        )
        path = tmp_path / "axis.json"
        path.write_text(spec.to_json())
        code, out, err = run_cli(capsys, "describe", "--spec", str(path))
        assert code == 0
        assert "scoring-rule sweep axis: hammerhead, completeness" in out
        assert "[scoring completeness]" in out

    def test_unknown_scoring_rule_in_spec_exits_nonzero(self, capsys, tmp_path):
        data = get_scenario("reputation-gamer").to_dict()
        data["scoring"] = "not-a-rule"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(capsys, "describe", "--spec", str(path))
        assert code != 0
        assert out == ""
        assert "unknown scoring rule" in err
