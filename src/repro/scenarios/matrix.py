"""The attack x scoring-rule ablation matrix.

The scenario registry supplies the attacks; the scoring-rule registry
supplies the rules; this module runs the full cross product through the
sweep engine and distills, per cell, the reputation reaction (rounds
until demotion, demoted-epoch counts, leader-slot shares) next to the
performance numbers — the systematic evaluation harness the single
curated scenarios build toward.

The matrix uses the scenario engine's ``scoring_rules`` sweep axis: each
attack spec is re-validated with ``scoring_rules=<rules>`` and
``protocols=("hammerhead",)`` (the static Bullshark baseline has no
reputation to ablate), compiled once per rule, and all cells of all
attacks run as one sweep batch.

``python -m repro.scenarios matrix`` is the CLI entry point; the smoke
cells of two attacks by two rules have their ordering digests pinned in
``tests/integration/test_behavior_differential.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.scoring import scoring_rule_names
from repro.errors import ConfigurationError
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import CompiledPoint, ScenarioSpec, compile_spec
from repro.sim.experiment import ExperimentResult
from repro.sim.sweep import SweepEngine

MATRIX_VERSION = 1

#: The default attack set: every registry scenario whose adversary the
#: scoring rules are supposed to see (plus the canonical inert gamer,
#: kept in deliberately — "no rule reacts" is the measurement there).
DEFAULT_MATRIX_ATTACKS = (
    "targeted-leader-attack",
    "reputation-gamer",
    "reputation-gamer-strict",
    "lazy-leader",
    "adaptive-dos",
    "colluding-silence",
    "coalition-gaming",
)


def matrix_spec(attack: str, rules: Sequence[str], smoke: bool = False) -> ScenarioSpec:
    """The sweep-ready spec of one matrix row (one attack, all rules)."""
    spec = get_scenario(attack)
    if smoke:
        spec = spec.smoke()
    return spec.with_overrides(
        protocols=("hammerhead",),
        scoring_rules=tuple(rules),
    )


def _cell_record(point: CompiledPoint, result: ExperimentResult, digest_source: str) -> Dict[str, Any]:
    reputation = result.reputation
    demotions = reputation.get("rounds_until_demotion", {})
    demoted_rounds = [r for r in demotions.values() if r is not None]
    observer = result.config.observer
    ordered_count, ordering_digest = result.ordering_digests[observer]
    return {
        "attack": point.scenario,
        "rule": point.scoring,
        "committee_size": point.committee_size,
        "load": point.load,
        "seed": result.config.seed,
        "label": f"{point.scenario}/{point.scoring} ({result.config.label()})",
        "scenario_digest": digest_source,
        "ordering_digest": ordering_digest,
        "ordered_count": ordered_count,
        "throughput_tps": round(result.report.throughput_tps, 3),
        "avg_latency_s": round(result.report.avg_latency_s, 4),
        "skipped_anchor_rounds": result.report.skipped_anchor_rounds,
        "schedule_changes": reputation.get("schedule_changes", 0),
        "faulty_validators": reputation.get("faulty_validators", []),
        "rounds_until_demotion": demotions,
        "demoted_epochs": reputation.get("demoted_epochs", {}),
        "faulty_slot_share_initial": reputation.get("faulty_slot_share_initial"),
        "faulty_slot_share_converged": reputation.get("faulty_slot_share_converged"),
        # Cross-cell comparison helpers.
        "culprits_demoted": len(demoted_rounds),
        "culprit_count": len(reputation.get("faulty_validators", [])),
        "first_demotion_round": min(demoted_rounds) if demoted_rounds else None,
    }


def run_matrix(
    attacks: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
    smoke: bool = False,
    parallelism: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the attack x rule matrix and return its artifact document."""
    attack_names = tuple(attacks) if attacks else DEFAULT_MATRIX_ATTACKS
    rule_names = tuple(rules) if rules else scoring_rule_names()
    if not rule_names:
        raise ConfigurationError("the matrix needs at least one scoring rule")
    row_specs: List[Tuple[str, ScenarioSpec]] = [
        (attack, matrix_spec(attack, rule_names, smoke=smoke)) for attack in attack_names
    ]
    points: List[Tuple[str, CompiledPoint]] = []
    for _attack, spec in row_specs:
        for point in compile_spec(spec):
            points.append((spec.scenario_digest(), point))
    results = SweepEngine(parallelism=parallelism).run(
        [point.config for _, point in points]
    )
    cells = [
        _cell_record(point, result, digest)
        for (digest, point), result in zip(points, results)
    ]
    return {
        "matrix_version": MATRIX_VERSION,
        "attacks": list(attack_names),
        "rules": list(rule_names),
        "smoke": bool(smoke),
        "row_digests": {attack: spec.scenario_digest() for attack, spec in row_specs},
        "cells": cells,
        "summary": summarize_matrix(cells),
    }


def summarize_matrix(cells: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, str]]:
    """attack -> rule -> a compact demotion verdict for each cell.

    ``"3/3@22"`` reads "all three culprits demoted, the first at round
    22"; ``"0/3"`` means the rule never reacted.  Multi-point rows (e.g.
    several committee sizes) keep the sharpest verdict (most culprits,
    earliest round).
    """
    grid: Dict[str, Dict[str, str]] = {}
    best: Dict[Tuple[str, str], Tuple[int, float]] = {}
    for cell in cells:
        key = (cell["attack"], cell["rule"])
        demoted = cell["culprits_demoted"]
        first = cell["first_demotion_round"]
        rank = (demoted, -(first if first is not None else float("inf")))
        if key in best and rank <= best[key]:
            continue
        best[key] = rank
        verdict = f"{demoted}/{cell['culprit_count']}"
        if first is not None:
            verdict += f"@{first}"
        grid.setdefault(cell["attack"], {})[cell["rule"]] = verdict
    return grid


def format_matrix_table(document: Dict[str, Any]) -> str:
    """A fixed-width attack x rule table of the summary grid."""
    rules = document["rules"]
    summary = document["summary"]
    attacks = document["attacks"]
    attack_width = max([len("attack \\ rule")] + [len(a) for a in attacks])
    widths = [max(len(rule), 8) for rule in rules]
    header = "  ".join(
        ["attack \\ rule".ljust(attack_width)]
        + [rule.rjust(width) for rule, width in zip(rules, widths)]
    )
    lines = [header, "-" * len(header)]
    for attack in attacks:
        row = summary.get(attack, {})
        lines.append(
            "  ".join(
                [attack.ljust(attack_width)]
                + [row.get(rule, "-").rjust(width) for rule, width in zip(rules, widths)]
            )
        )
    return "\n".join(lines)
