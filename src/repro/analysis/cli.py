"""The ``python -m repro.analysis`` command-line entry point.

Subcommands::

    check                      run every determinism rule plus the
                               purity-baseline diff; exit 0 when clean,
                               1 on findings/drift, 2 on usage errors
    explain RULE               print a rule's rationale, what it fails
                               on, and how to fix or waive it
    purity-map                 print the commit-path closure; with
                               --write-baseline, regenerate
                               analysis/purity_baseline.json

Exit codes and error reporting follow the ``repro.scenarios`` CLI
conventions: library errors become one ``error: ...`` line on stderr
with exit code 2, never a traceback; findings go to stdout with exit
code 1 so CI logs read naturally.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.config import AnalyzerConfig, repo_config
from repro.analysis.engine import analyze, write_baseline
from repro.analysis.purity import baseline_payload, build_purity_map
from repro.analysis.rules import analysis_rule_names, make_analysis_rule
from repro.analysis.source import load_package
from repro.cliutil import EXIT_FINDINGS, EXIT_OK, run_guarded
from repro.errors import ReproError


def _config_from_args(args: argparse.Namespace) -> AnalyzerConfig:
    config = repo_config(Path(args.repo_root) if args.repo_root else None)
    if getattr(args, "no_baseline", False):
        config = AnalyzerConfig(
            root=config.root,
            package=config.package,
            purity_roots=config.purity_roots,
            wallclock_allowlist=config.wallclock_allowlist,
            unordered_extra_modules=config.unordered_extra_modules,
            float_modules=config.float_modules,
            message_modules=config.message_modules,
            baseline_path=None,
        )
    return config


def _cmd_check(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rules = args.rules or None
    report = analyze(config, rules=rules)
    for line in report.render_lines():
        print(line)
    return EXIT_OK if report.ok else EXIT_FINDINGS


def _cmd_explain(args: argparse.Namespace) -> int:
    rule = make_analysis_rule(args.rule)
    print(rule.explain())
    return EXIT_OK


def _cmd_purity_map(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    modules = load_package(config.root, config.package)
    purity = build_purity_map(modules, config)
    if args.write_baseline:
        if config.baseline_path is None:
            raise ReproError("no baseline path configured for this tree")
        write_baseline(purity, Path(config.baseline_path))
        print(f"wrote {config.baseline_path}")
        return EXIT_OK
    payload = baseline_payload(purity)
    print(f"purity roots ({len(purity.roots)}):")
    for root in purity.roots:
        print(f"  {root}")
    print(f"import closure ({len(purity.closure)} modules):")
    for module_name in purity.closure:
        count = len(purity.functions_in(module_name))
        print(f"  {module_name}  ({count} reachable functions)")
    print(
        f"{len(purity.reachable)} reachable functions, "
        f"{purity.edge_count} call edges, digest {payload['digest']}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--repo-root",
        default=None,
        help="repository root to analyze (default: the repo containing this package)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="run the determinism rules")
    check.add_argument(
        "--rules",
        nargs="+",
        default=None,
        metavar="RULE",
        help=f"subset of rules to run (default: {' '.join(analysis_rule_names())})",
    )
    check.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the purity-baseline diff (rule findings only)",
    )

    explain = commands.add_parser("explain", help="print a rule's rationale")
    explain.add_argument("rule", help="rule id, e.g. DET003")

    purity = commands.add_parser("purity-map", help="print the commit-path closure")
    purity.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate analysis/purity_baseline.json from the current tree",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "explain": _cmd_explain,
        "purity-map": _cmd_purity_map,
    }
    return run_guarded(lambda: handlers[args.command](args))


if __name__ == "__main__":
    sys.exit(main())
