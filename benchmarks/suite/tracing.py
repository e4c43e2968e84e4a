"""The traced run: a profiler hook owned by the benchmark, folded by layer.

``cProfile`` is installed around one run of the program, its records
stay in memory, and after the run they are folded by
``repro.<package>.<module>`` into the layer table: self time, call
counts and caller -> callee edges.  Self time spent in C built-ins and
in the standard library (``heapq``, ``dict``, ``hashlib``, ``random``)
is charged to the layer that called them, following the profiler's
caller edges, so a layer's share is the time the run would save if the
layer cost nothing.  Event-loop machinery (``asyncio``, ``selectors``,
socket methods) is its own layer.

The profiler taxes every Python call and no C call, which shifts the
proportions: shares locate candidates, they are not a measurement of a
gain, and end-to-end metrics are never read from a traced run.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Any, Callable, Dict, Tuple

LAYERS = (
    "workload.generator", "metrics.collector", "network.simulator",
    "network.transport", "network.latency", "node.validator", "rbc.certified",
    "dag.store", "consensus.bullshark", "core.manager", "core.scoring",
    "committee.stake", "crypto.hashing", "netexec.codec", "netexec.transport",
    "netexec.lockstep", "asyncio", "other",
)

# Modules folded into a neighbouring layer; a whole package is named by
# its bare package name.  Whatever is left of ``repro`` (faults, obs,
# storage, behavior, sim, scenarios) is "other".
_FOLD = {
    "workload": "workload.generator",
    "metrics": "metrics.collector",
    "network.events": "network.simulator",
    "network.synchrony": "network.transport",
    "node": "node.validator",
    "rbc": "rbc.certified",
    "dag": "dag.store",
    "consensus": "consensus.bullshark",
    "core.scores": "core.manager",
    "core.schedule_change": "core.manager",
    "schedule": "core.manager",
    "committee": "committee.stake",
    "crypto": "crypto.hashing",
    "netexec.clock": "netexec.transport",
    "netexec.runner": "netexec.transport",
}

_EVENT_LOOP_FILES = ("asyncio", "selectors.py", "socket.py")
_EVENT_LOOP_BUILTINS = ("_socket.", "select.epoll", "_asyncio.", "select.select")

_Function = Tuple[str, int, str]


def layer_of(function: _Function) -> str:
    """The layer a profiler record belongs to; "" when its callers decide."""
    filename, _line, name = function
    if filename == "~":
        return "asyncio" if any(tag in name for tag in _EVENT_LOOP_BUILTINS) else ""
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" in parts:
        package = len(parts) - 1 - parts[::-1].index("repro")
        module = ".".join(parts[package + 1:])[: -len(".py")]
        if module in LAYERS:
            return module
        return _FOLD.get(module) or _FOLD.get(module.split(".")[0]) or "other"
    if any(part in _EVENT_LOOP_FILES for part in parts):
        return "asyncio"
    if os.path.dirname(os.path.abspath(__file__)) == os.path.dirname(filename):
        return "other"
    return ""


def profile(run: Callable[[], Any]) -> Tuple[Dict[_Function, tuple], float]:
    """Run ``run()`` under the profiler: (raw records, seconds)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    seconds = time.perf_counter() - start
    return pstats.Stats(profiler).stats, seconds


def fold(stats: Dict[_Function, tuple]) -> Dict[str, Any]:
    """Fold raw profiler records into the per-layer table."""
    own = {function: layer_of(function) for function in stats}
    resolved: Dict[_Function, Dict[str, float]] = {}

    def owners(function: _Function, depth: int = 0) -> Dict[str, float]:
        """Layer -> share of ``function``'s time, through its callers."""
        if own.get(function):
            return {own[function]: 1.0}
        if function in resolved:
            return resolved[function]
        callers = stats[function][4] if function in stats else {}
        weight = sum(edge[2] for edge in callers.values())
        if not callers or weight <= 0.0 or depth > 8:
            return {"other": 1.0}
        resolved[function] = {"other": 1.0}  # cut recursion through cycles
        shares: Dict[str, float] = {}
        for caller, edge in callers.items():
            for layer, share in owners(caller, depth + 1).items():
                shares[layer] = shares.get(layer, 0.0) + share * edge[2] / weight
        resolved[function] = shares
        return shares

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    edges: Dict[str, Dict[str, float]] = {}
    for function, (_cc, ncalls, tottime, _cum, callers) in stats.items():
        layer = own[function]
        if layer:
            self_s[layer] += tottime
            calls[layer] += ncalls
        elif callers:
            for caller, edge in callers.items():
                for owner, share in owners(caller).items():
                    self_s[owner] += edge[2] * share
        else:
            self_s["other"] += tottime
        if not layer:
            continue
        for caller, edge in callers.items():
            source = own.get(caller)
            if source and source != layer:
                record = edges.setdefault(f"{source} -> {layer}", {"calls": 0, "cum_s": 0.0})
                record["calls"] += edge[0]
                record["cum_s"] += edge[3]
    total = sum(self_s.values())
    return {
        "total_s": total,
        "self_s": self_s,
        "self_share": {layer: seconds / total for layer, seconds in self_s.items()},
        "calls": calls,
        "edges": edges,
    }
