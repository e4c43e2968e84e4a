"""The ``python -m repro.scenarios`` command-line runner.

Subcommands::

    list                       show the registered scenarios
    describe NAME              print a scenario's JSON spec and digest
    run NAME                   run a scenario, print the report table,
                               and write the reproducibility artifact
    sweep NAME --seeds 1 2 3   run a scenario across several seeds
    matrix                     run the attack x scoring-rule ablation
                               matrix (--attacks / --rules subset it)
                               and write its artifact
    diff A.json B.json         compare two artifacts: same scenario
                               digest -> per-point ordering-digest and
                               performance deltas; different digests ->
                               explain the spec difference.  Non-zero
                               exit on any mismatch (CI-friendly).
                               --prefix compares by longest common
                               committed prefix instead (for pairs that
                               legitimately diverge, e.g. one
                               scenario under two scoring rules)

``run`` and ``sweep`` accept ``--spec FILE`` instead of a registered
name, so ad-hoc scenarios can be described in JSON and executed without
touching the registry.  Every run writes an artifact JSON (``--output``,
default ``scenario-<name>.json``) containing the spec echo, the
``scenario_digest``, and the per-point reports and ordering digests.

``--smoke`` shrinks any scenario to a tiny committee and a short horizon
(CI smoke runs; see :meth:`ScenarioSpec.smoke`).

``run``/``sweep`` accept ``--backend {sim,lockstep,net}``: the default
free-running simulation, the content-deterministic lockstep oracle, or
the real-socket backend (see ``repro/netexec/``).  ``lockstep`` and
``net`` artifacts for the same spec+seed must diff clean — the CI
``cross-backend-smoke`` job pins that equivalence.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cliutil import run_guarded
from repro.errors import ReproError
from repro.metrics.report import format_table
from repro.scenarios.registry import get_scenario, all_scenarios
from repro.scenarios.runner import (
    default_artifact_path,
    run_scenario,
    write_artifact,
)
from repro.scenarios.spec import ScenarioSpec, compile_spec


def _load_spec(args: argparse.Namespace) -> ScenarioSpec:
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as error:
            # Normalized into the library's error hierarchy so the CLI
            # entry point guarantees a stderr message and a non-zero
            # exit code instead of a traceback (CI trusts exit codes).
            raise ReproError(f"cannot read spec file {args.spec!r}: {error}") from None
        spec = ScenarioSpec.from_json(text)
    else:
        spec = get_scenario(args.name)
    if args.smoke:
        spec = spec.smoke()
    return spec


def _cmd_list(args: argparse.Namespace) -> int:
    scenarios = all_scenarios()
    width = max(len(name) for name in scenarios)
    print(f"{len(scenarios)} registered scenarios:")
    for name, spec in scenarios.items():
        print(f"  {name.ljust(width)}  {spec.description}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    print(spec.to_json())
    print(f"scenario_digest: {spec.scenario_digest()}")
    if spec.scoring_rules:
        print(f"scoring-rule sweep axis: {', '.join(spec.scoring_rules)}")
    else:
        print(f"scoring rule: {spec.scoring}")
    points = compile_spec(spec)
    print(f"compiles to {len(points)} experiment point(s):")
    for point in points:
        label = point.config.label()
        if spec.scoring_rules:
            label += f" [scoring {point.scoring}]"
        print(f"  {label}")
        for plan in point.config.extra_faults:
            print(f"    - {plan.describe()}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    seeds = args.seeds
    label = f"seeds {seeds}" if seeds else f"seed {spec.seed}"
    print(f"Running scenario {spec.name!r} ({label}) ...")
    trace_path = args.trace
    backend = args.backend
    if backend != "sim":
        print(f"backend: {backend}")
    artifact = run_scenario(
        spec,
        seeds=seeds,
        parallelism=args.parallelism,
        trace_path=trace_path,
        backend=backend,
    )
    _print_artifact_table(spec, artifact)
    suffix = "-smoke" if args.smoke else ""
    path = args.output or default_artifact_path(spec, suffix=suffix)
    write_artifact(artifact, path)
    print(f"wrote {path}")
    if trace_path:
        print(f"wrote trace {trace_path}")
    return 0


def _print_artifact_table(spec: ScenarioSpec, artifact: dict) -> None:
    reports = [point["report"] for point in artifact["points"]]
    print()
    print(format_table(reports, title=f"Scenario {spec.name} - {spec.description}"))
    print()
    print(f"scenario_digest: {artifact['scenario_digest']}")
    for point in artifact["points"]:
        print(
            f"  {point['label']} seed {point['seed']}: "
            f"ordering_digest {point['ordering_digest'][:16]}... "
            f"({point['ordered_count']} ordered)"
        )


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.scenarios.matrix import format_matrix_table, run_matrix

    attacks = args.attacks or None
    rules = args.rules or None
    print("Running the attack x scoring-rule matrix ...")
    document = run_matrix(
        attacks=attacks,
        rules=rules,
        smoke=args.smoke,
        parallelism=args.parallelism,
    )
    print()
    print(format_matrix_table(document))
    print()
    print("cell verdicts read 'culprits demoted / culprit count[@first round]'")
    path = args.output or ("scenario-matrix-smoke.json" if args.smoke else "scenario-matrix.json")
    write_artifact(document, path)
    print(f"wrote {path}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.scenarios.diff import diff_artifact_files

    code, lines = diff_artifact_files(
        args.left,
        args.right,
        prefix=args.prefix,
        min_prefix=args.min_prefix,
    )
    stream = sys.stderr if code else sys.stdout
    for line in lines:
        print(line, file=stream)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="show the registered scenarios")

    describe = commands.add_parser("describe", help="print a scenario spec and digest")
    _add_spec_arguments(describe)

    run = commands.add_parser("run", help="run a scenario and write its artifact")
    _add_spec_arguments(run)
    _add_run_arguments(run)

    sweep = commands.add_parser("sweep", help="run a scenario across several seeds")
    _add_spec_arguments(sweep)
    _add_run_arguments(sweep)

    matrix = commands.add_parser(
        "matrix",
        help="run the attack x scoring-rule ablation matrix",
    )
    matrix.add_argument(
        "--attacks",
        nargs="+",
        default=None,
        help="registry scenarios to use as attacks (default: the curated attack set)",
    )
    matrix.add_argument(
        "--rules",
        nargs="+",
        default=None,
        help="scoring rules to ablate over (default: every registered rule)",
    )
    matrix.add_argument(
        "--smoke",
        action="store_true",
        help="shrink every attack to smoke scale (CI)",
    )
    matrix.add_argument(
        "--parallelism",
        type=int,
        default=None,
        help="sweep worker processes (default: REPRO_SWEEP_PARALLELISM or CPU count)",
    )
    matrix.add_argument("--output", default=None, help="matrix artifact JSON path")

    diff = commands.add_parser(
        "diff",
        help="compare two artifact files (non-zero exit on mismatch)",
    )
    diff.add_argument("left", help="first artifact JSON")
    diff.add_argument("right", help="second artifact JSON")
    diff.add_argument(
        "--prefix",
        action="store_true",
        help="compare by longest common committed prefix (checkpoint "
        "chains) instead of requiring byte-identical ordering digests — "
        "for artifact pairs that legitimately diverge, e.g. one "
        "scenario under two scoring rules",
    )
    diff.add_argument(
        "--min-prefix",
        type=int,
        default=1,
        dest="min_prefix",
        help="smallest acceptable common committed prefix (ordered "
        "positions) for a genuinely diverging point pair (default 1; "
        "only meaningful with --prefix)",
    )
    return parser


def _add_spec_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument("name", nargs="?", help="a registered scenario name")
    subparser.add_argument("--spec", help="path to a scenario spec JSON file")
    subparser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink to a tiny committee and short horizon (CI smoke run)",
    )


def _add_run_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="seeds to fan out over (default: the spec's own seed)",
    )
    subparser.add_argument(
        "--parallelism",
        type=int,
        default=None,
        help="sweep worker processes (default: REPRO_SWEEP_PARALLELISM or CPU count)",
    )
    subparser.add_argument("--output", default=None, help="artifact JSON path")
    subparser.add_argument(
        "--backend",
        choices=("sim", "lockstep", "net"),
        default="sim",
        help="execution backend: 'sim' (free-running discrete-event "
        "simulation, the default), 'lockstep' (content-deterministic "
        "lockstep mode on the simulator — the cross-validation oracle), "
        "or 'net' (the same lockstep mode over real asyncio sockets). "
        "lockstep and net must produce identical ordering digests for "
        "the same spec+seed; crash faults only",
    )
    subparser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable the deterministic tracer and write the event JSONL "
        "to PATH next to the artifact (digest-neutral; see repro.obs)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("describe", "run", "sweep") and not (args.name or args.spec):
        parser.error("give a scenario name or --spec FILE")
    handlers = {
        "list": _cmd_list,
        "describe": _cmd_describe,
        "run": _cmd_run,
        "sweep": _cmd_run,  # sweep is run with --seeds made prominent
        "matrix": _cmd_matrix,
        "diff": _cmd_diff,
    }
    # Exit codes, stderr-only `error:` lines, and BrokenPipeError
    # handling are the shared contract in repro.cliutil.
    return run_guarded(lambda: handlers[args.command](args))


if __name__ == "__main__":
    sys.exit(main())
