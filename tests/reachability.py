#!/usr/bin/env python3
"""Reachability ledger: which functions of ``src/repro`` the product runs.

A profile hook, set before ``repro`` is imported, records what the benchmark's
workloads (``--smoke``) and unit costs, every registered scenario at smoke
scale, each CLI subcommand and option, the examples and the figure benchmarks
call; tier-1 then runs under ``cProfile`` in a child process.  Each function in
``src/repro`` is product, tests only, or nothing.  Exit 1 on a non-product one
without a waiver in ``tests/reachability_waivers.json`` and on a stale waiver.
A reason starts with its kind: ``safety:`` (refuses bad input or recovers from
a fault no scenario makes), ``full-scale:<scenario>`` or ``out of scope:`` (an
option no registered scenario selects); what only tests use has no kind, so it
goes, its tests reading product state or doubles in ``tests/`` instead.
Usage: ``python tests/reachability.py [--product]`` (``--product`` skips tier-1).
"""

import ast, contextlib, glob, importlib, io, json, os, pathlib, pstats, runpy, subprocess, sys, tempfile, threading  # noqa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WAIVERS = os.path.join(ROOT, "tests", "reachability_waivers.json")
KINDS = ("safety:", "full-scale:", "out of scope:")
REACHED = set()
SHORT = ["--duration", "20", "--warmup", "5"]
EXAMPLES = {"quickstart.py": [], "schedule_inspection.py": [], "sui_incident.py": ["--committee", "7", *SHORT],
            "figure1_faultless.py": ["--committees", "4", "--loads", "150", *SHORT],
            "figure2_faults.py": ["--committees", "4", "--loads", "150", *SHORT]}
hook = lambda frame, event, _arg: REACHED.add(frame.f_code) if event == "call" else None  # noqa: E731


def defined():
    """``(file, first line) -> "repro/module.py:Qual.name"``, and each key's line count."""
    where, lines = {}, {}

    def visit(node, prefix, path, relative):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                key = where[(os.path.realpath(path), first)] = f"{relative}:{prefix}{child.name}"
                lines[key] = lines.get(key, 0) + child.end_lineno - first + 1
                visit(child, f"{prefix}{child.name}.<locals>.", path, relative)
            else:
                visit(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix, path, relative)

    for path in sorted(glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True)):
        relative = os.path.relpath(path, SRC).replace(os.sep, "/")
        with open(path, encoding="utf-8") as source:
            visit(ast.parse(source.read()), "", path, relative)
    return where, lines


def product(tmp):
    """Run every product entry point in this process."""
    os.environ.update(REPRO_SWEEP_PARALLELISM="1", REPRO_BENCH_SCALE="quick")
    sys.path[:0] = [SRC, ROOT, os.path.join(ROOT, "benchmarks", "suite")]
    import layers, worker, workloads  # noqa: E401 - the benchmark suite's modules
    from repro.obs import cli as obs
    from repro.scenarios import cli as scenarios, get_scenario, scenario_names
    here, out = os.getcwd(), lambda name: os.path.join(tmp, name)
    for name in workloads.NAMES:  # the worker leaves the socket directory as cwd and temp dir
        worker.main(["--workload", name, "--smoke"])
        os.chdir(here)
        tempfile.tempdir = None
    layers.unit_costs(2, worker.SMOKE_UNIT_SCALE)
    layers.transport_frames(1.0)  # the full-size frame burst is what pauses a link
    pathlib.Path(out("spec.json")).write_text(get_scenario("figure2-faults").to_json(), encoding="utf-8")
    calls = [(scenarios, "list"), (scenarios, "describe", "--spec", out("spec.json"), "--smoke")]
    for name in scenario_names():
        calls += [(scenarios, "describe", name), (scenarios, "run", name, "--smoke", "--output", out(name))]
    for backend in ("lockstep", "net"):
        calls += [(scenarios, "run", "faultless", "--smoke", "--backend", backend, "--output", out(backend)),
                  (scenarios, "run", "figure2-faults", "--smoke", "--backend", backend, "--trace", out(backend + ".jsonl"),
                   "--output", out(backend + "-faults"))]
    trace = out("figure2-faults.jsonl")
    calls += [
        (scenarios, "run", "--spec", out("spec.json"), "--smoke", "--trace", out("spec.jsonl"), "--output", out("spec")),
        (scenarios, "sweep", "faultless", "--smoke", "--seeds", "1", "2", "--parallelism", "1", "--output", out("sweep")),
        (scenarios, "matrix", "--smoke", "--attacks", "reputation-gamer", "--rules", "hammerhead", "completeness",
         "--parallelism", "1", "--output", out("matrix")),
        (scenarios, "diff", out("lockstep"), out("net")),
        (scenarios, "diff", out("faultless"), out("lockstep")),  # same scenario, diverged orderings
        (scenarios, "diff", out("faultless"), out("figure2-faults")),  # different scenarios
        (scenarios, "diff", "--prefix", "--min-prefix", "1", out("faultless"), out("lockstep")),
        (obs, "trace", "figure2-faults", "--smoke", "--output", trace, "--artifact", out("traced")),
        (obs, "trace", "--spec", out("spec.json"), "--smoke", "--seeds", "3", "--parallelism", "1", "--output", out("t")),
        (obs, "timeline", trace, "--validator", "1", "--limit", "5"),
        (obs, "explain", trace, "--first-skip"),
        (obs, "explain", trace, "--anchor", "4", "--validator", "0"),
        (obs, "explain", trace, "--demotion", "3"),
    ]
    calls += [(obs, "trace", name, "--smoke", "--output", out(name + ".jsonl"))  # schedule changes, drops, coalitions
              for name in ("faultless", "lossy-recovery", "coalition-gaming")]
    for module, *argv in calls:
        module.main(argv)
    with contextlib.chdir(tmp):  # no --output: the artifact goes to its default path
        scenarios.main(["run", "faultless", "--smoke"])
    for script, argv in EXAMPLES.items():
        sys.argv = [script, *argv]
        with contextlib.suppress(SystemExit):
            runpy.run_path(os.path.join(ROOT, "examples", script), run_name="__main__")

    # The one method of pytest-benchmark's fixture that the figure benchmarks use.
    fixture = type("Benchmark", (), {"pedantic": lambda self, run, rounds, iterations: run()})()
    importlib.import_module("benchmarks.bench_common").RESULTS_DIR = tmp
    for path in sorted(glob.glob(os.path.join(ROOT, "benchmarks", "test_bench_*.py"))):
        module = importlib.import_module("benchmarks." + os.path.basename(path)[:-3])
        for test in (test for name, test in sorted(vars(module).items()) if name.startswith("test_")):
            test(fixture)


def tier1(tmp, environment):
    """``(file, first line)`` of every function tier-1 calls (cProfile, child process)."""
    profile = os.path.join(tmp, "tier1.prof")
    command = [sys.executable, "-m", "cProfile", "-o", profile, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--ignore-glob=benchmarks/test_bench_*.py"]
    subprocess.run(command, cwd=ROOT, env=dict(environment, PYTHONPATH=SRC), check=True, stdout=sys.stderr)
    return {(os.path.realpath(path), line) for path, line, _name in pstats.Stats(profile).stats}


def main(argv):
    environment, (where, lines) = dict(os.environ), defined()
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(hook)
        threading.setprofile(hook)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                product(tmp)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        reached = {where.get((os.path.realpath(code.co_filename), code.co_firstlineno)) for code in REACHED}
        tested = None if "--product" in argv else {where.get(site) for site in tier1(tmp, environment)}
    keys = set(where.values())
    unreached = keys - reached
    buckets = {"product": keys & reached}
    buckets.update({"not product": unreached} if tested is None else
                   {"tests only": unreached & tested, "nothing": unreached - tested})
    with open(WAIVERS, encoding="utf-8") as handle:
        waivers = json.load(handle)
    for bucket, members in buckets.items():
        print(f"{bucket}: {len(members)} functions, {sum(lines[key] for key in members)} lines")
        for key in sorted(members) if bucket != "product" else ():
            print(f"  {key}  [{waivers.get(key, 'NOT WAIVED')}]")
    problems = [f"not reached by the product and not waived: {key}" for key in sorted(unreached - set(waivers))]
    problems += [f"stale waiver (gone or reached): {key}" for key in sorted(set(waivers) - unreached)]
    problems += [f"waiver without a kind: {key}" for key, why in sorted(waivers.items()) if not why.startswith(KINDS)]
    print("\n".join(problems), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
