"""The ``python -m repro.obs`` observability command line.

Subcommands::

    trace NAME|--spec F        run a scenario with the deterministic
                               tracer on and write the event JSONL
    timeline TRACE.jsonl       per-validator commit/skip/schedule
                               timeline rendered from a trace
    explain TRACE.jsonl        causal queries: --anchor R (why was that
                               anchor skipped), --first-skip (explain
                               the first skipped anchor), --demotion V
                               (what evidence demoted validator V)

Where the host's time goes is the benchmark's question, not this CLI's:
``python3 benchmarks/suite/run.py --workload W --traced`` prints the
per-layer table.

Follows the scenarios CLI's exit contract (``repro.cliutil``):
0 success, 1 findings, 2 operational errors with a stderr ``error:``
line, 0 on a broken pipe.  Tracing is digest-neutral — ``trace``
produces the exact artifact digests a plain run does.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cliutil import run_guarded
from repro.obs import query


def _cmd_trace(args: argparse.Namespace) -> int:
    # Same name-or---spec/--smoke resolution the scenarios CLI uses.
    from repro.scenarios.cli import _load_spec
    from repro.scenarios.runner import run_scenario, write_artifact

    spec = _load_spec(args)
    seeds = args.seeds if args.seeds else None
    suffix = "-smoke" if args.smoke else ""
    trace_path = args.output or f"trace-{spec.name}{suffix}.jsonl"
    print(f"Tracing scenario {spec.name!r} ...")
    artifact = run_scenario(
        spec,
        seeds=seeds,
        parallelism=args.parallelism,
        trace_path=trace_path,
    )
    events = query.load_trace(trace_path)
    print(f"wrote trace {trace_path} ({len(events)} events)")
    for line in query.summarize_kinds(events):
        print(line)
    print(f"scenario_digest: {artifact['scenario_digest']}")
    for point in artifact["points"]:
        print(
            f"  {point['label']} seed {point['seed']}: "
            f"ordering_digest {point['ordering_digest'][:16]}..."
        )
    if args.artifact:
        write_artifact(artifact, args.artifact)
        print(f"wrote {args.artifact}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    events = query.select_point(query.load_trace(args.trace), args.point)
    for line in query.render_timeline(events, validator=args.validator, limit=args.limit):
        print(line)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    events = query.select_point(query.load_trace(args.trace), args.point)
    if args.demotion is not None:
        lines = query.explain_demotion(events, args.demotion, observer=args.validator)
    else:
        observer = query.observer_node(events) if args.validator is None else args.validator
        if args.first_skip:
            round_number = query.first_skipped_round(events, observer)
        else:
            round_number = args.anchor
        lines = query.explain_anchor(events, round_number, validator=observer)
    for line in lines:
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser("trace", help="run a scenario with tracing and write JSONL")
    trace.add_argument("name", nargs="?", help="a registered scenario name")
    trace.add_argument("--spec", help="path to a scenario spec JSON file")
    trace.add_argument(
        "--smoke",
        action="store_true",
        help="shrink to a tiny committee and short horizon (CI smoke run)",
    )
    trace.add_argument("--seeds", type=int, nargs="+", default=None, help="seeds to fan out over")
    trace.add_argument(
        "--parallelism",
        type=int,
        default=None,
        help="sweep worker processes (default: REPRO_SWEEP_PARALLELISM or CPU count)",
    )
    trace.add_argument(
        "--output", default=None, help="trace JSONL path (default: trace-<name>.jsonl)"
    )
    trace.add_argument(
        "--artifact", default=None, help="also write the scenario artifact JSON here"
    )

    timeline = commands.add_parser("timeline", help="render a commit/skip timeline")
    timeline.add_argument("trace", help="trace JSONL file")
    timeline.add_argument("--validator", type=int, default=None, help="perspective validator id")
    timeline.add_argument("--point", default=None, help="scenario point label (default: first)")
    timeline.add_argument("--limit", type=int, default=None, help="maximum rows")

    explain = commands.add_parser("explain", help="causal query over a trace")
    explain.add_argument("trace", help="trace JSONL file")
    what = explain.add_mutually_exclusive_group(required=True)
    what.add_argument("--anchor", type=int, help="explain the skip of anchor round R")
    what.add_argument(
        "--first-skip", action="store_true", help="explain the first skipped anchor"
    )
    what.add_argument("--demotion", type=int, help="explain what demoted validator V")
    explain.add_argument("--validator", type=int, default=None, help="perspective validator id")
    explain.add_argument("--point", default=None, help="scenario point label (default: first)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "trace" and not (args.name or args.spec):
        parser.error("give a scenario name or --spec FILE")
    handlers = {
        "trace": _cmd_trace,
        "timeline": _cmd_timeline,
        "explain": _cmd_explain,
    }
    return run_guarded(lambda: handlers[args.command](args))


if __name__ == "__main__":
    sys.exit(main())
