"""Compare two scenario artifacts (``python -m repro.scenarios diff``).

Artifacts (see :mod:`repro.scenarios.runner`) are reproducibility
documents: the spec echo, its deterministic ``scenario_digest``, and the
per-point reports and ordering digests.  Comparing two of them answers
the regression-triage question in one command:

* **Same scenario digest** — the runs came from the same scenario
  definition, so their ordering digests must match point for point; any
  mismatch is a real behavioural divergence.  Matching points also get a
  performance delta report (throughput / latency / ordered count).
* **Different scenario digests** — the runs measured different things;
  the diff explains *where* the specs differ instead of comparing
  numbers that are not comparable.

The comparison returns a non-zero exit code on any mismatch so CI can
chain it after a reproduction run.

**Prefix mode** (``--prefix``) relaxes the strict contract for artifact
pairs that legitimately diverge — e.g. one loss window run under two
scoring rules, where the rule changes the leader schedules and therefore
the final ordering digests.  Instead of erroring on unequal
scenario digests, matched points are compared by their committed-prefix
checkpoint chains (:mod:`repro.obs.consistency`): the runs must agree on
every aligned checkpoint up to their genuine divergence, and the length
of the longest common committed prefix is reported (and gated by
``min_prefix``).  The strict mode stays the default — the CI
cross-backend gate depends on byte-identical digests.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.obs.consistency import checkpoint_chain, compare_prefixes

# Exit codes of the diff subcommand.
DIFF_MATCH = 0
DIFF_MISMATCH = 1


def load_artifact(path: str) -> Dict[str, Any]:
    """Load an artifact JSON, raising :class:`ConfigurationError` on junk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
    except OSError as error:
        raise ConfigurationError(f"cannot read artifact {path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"artifact {path!r} is not valid JSON: {error}") from None
    if not isinstance(artifact, dict) or "scenario_digest" not in artifact:
        raise ConfigurationError(
            f"artifact {path!r} does not look like a scenario artifact "
            "(missing 'scenario_digest')"
        )
    return artifact


def _spec_differences(
    left: Mapping[str, Any], right: Mapping[str, Any], prefix: str = ""
) -> List[str]:
    """Human-readable nested differences between two spec dictionaries."""
    lines: List[str] = []
    for key in sorted(set(left) | set(right)):
        path = f"{prefix}{key}"
        if key not in left:
            lines.append(f"  only in right: {path} = {right[key]!r}")
        elif key not in right:
            lines.append(f"  only in left:  {path} = {left[key]!r}")
        elif left[key] != right[key]:
            if isinstance(left[key], Mapping) and isinstance(right[key], Mapping):
                lines.extend(_spec_differences(left[key], right[key], prefix=f"{path}."))
            else:
                lines.append(f"  {path}: {left[key]!r} -> {right[key]!r}")
    return lines


def _point_key(point: Mapping[str, Any]) -> Tuple[Any, ...]:
    """Identity of one artifact point inside a fixed scenario."""
    return (
        point.get("label"),
        point.get("seed"),
        point.get("committee_size"),
        point.get("protocol"),
        point.get("load"),
    )


def _report_value(point: Mapping[str, Any], field: str) -> Any:
    report = point.get("report") or {}
    return report.get(field)


def _delta_line(label: str, left: Any, right: Any, unit: str = "") -> str:
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        delta = right - left
        rel = f" ({100 * delta / left:+.1f}%)" if left else ""
        return f"      {label}: {left:.4g} -> {right:.4g}{rel}{unit}"
    return f"      {label}: {left!r} -> {right!r}"


def _prefix_chain(point: Mapping[str, Any]) -> List[Tuple[int, str]]:
    """The committed-prefix chain of one artifact point."""
    checkpoints = [
        (int(count), digest)
        for count, digest in (point.get("ordering_checkpoints") or ())
    ]
    final = (point.get("ordered_count") or 0, point.get("ordering_digest") or "")
    return checkpoint_chain(checkpoints, final)


def diff_artifacts(
    left: Mapping[str, Any],
    right: Mapping[str, Any],
    prefix: bool = False,
    min_prefix: int = 1,
) -> Tuple[int, List[str]]:
    """Compare two artifacts; returns ``(exit_code, report_lines)``.

    ``prefix`` switches to committed-prefix comparison (see the module
    docstring); ``min_prefix`` is the smallest acceptable common
    committed prefix (in ordered positions) for a point pair whose
    chains genuinely diverge.
    """
    lines: List[str] = []
    left_digest = left.get("scenario_digest")
    right_digest = right.get("scenario_digest")
    if left_digest != right_digest:
        if not prefix:
            lines.append(
                "scenario digests differ — the artifacts measured different scenarios:"
            )
            lines.append(f"  left:  {left_digest}")
            lines.append(f"  right: {right_digest}")
            spec_lines = _spec_differences(
                left.get("scenario") or {}, right.get("scenario") or {}
            )
            if spec_lines:
                lines.append("spec differences:")
                lines.extend(spec_lines)
            else:
                lines.append(
                    "specs echo identically; the digest difference comes from a "
                    "version bump of the digest scheme"
                )
            return DIFF_MISMATCH, lines
        lines.append(
            "scenario digests differ (allowed in prefix mode); spec differences:"
        )
        spec_lines = _spec_differences(
            left.get("scenario") or {}, right.get("scenario") or {}
        )
        lines.extend(spec_lines or ["  (none — digest scheme version bump)"])
    else:
        lines.append(f"scenario digest matches: {left_digest}")
    if prefix:
        return _diff_prefixes(left, right, min_prefix, lines)
    left_points = {_point_key(point): point for point in left.get("points") or ()}
    right_points = {_point_key(point): point for point in right.get("points") or ()}
    mismatched = 0
    compared = 0
    for key in sorted(set(left_points) | set(right_points), key=str):
        label = f"{key[0]} seed {key[1]}"
        left_point = left_points.get(key)
        right_point = right_points.get(key)
        if left_point is None or right_point is None:
            side = "left" if right_point is None else "right"
            lines.append(f"  [MISSING] {label}: only present in {side} artifact")
            mismatched += 1
            continue
        compared += 1
        left_ordering = left_point.get("ordering_digest")
        right_ordering = right_point.get("ordering_digest")
        if left_ordering != right_ordering:
            mismatched += 1
            lines.append(f"  [DIVERGED] {label}: ordering digests differ")
            lines.append(f"      left:  {left_ordering}")
            lines.append(f"      right: {right_ordering}")
            lines.append(
                _delta_line(
                    "ordered_count",
                    left_point.get("ordered_count"),
                    right_point.get("ordered_count"),
                )
            )
        else:
            lines.append(f"  [OK] {label}: ordering digest identical")
        for field, unit in (
            ("throughput_tps", " tx/s"),
            ("avg_latency_s", " s"),
            ("committed_transactions", ""),
        ):
            left_value = _report_value(left_point, field)
            right_value = _report_value(right_point, field)
            if left_value != right_value:
                lines.append(_delta_line(field, left_value, right_value, unit))
    if not compared and not mismatched:
        lines.append("  no points to compare")
    lines.append(
        f"{compared} point(s) compared, {mismatched} mismatched"
    )
    return (DIFF_MISMATCH if mismatched else DIFF_MATCH), lines


def _diff_prefixes(
    left: Mapping[str, Any],
    right: Mapping[str, Any],
    min_prefix: int,
    lines: List[str],
) -> Tuple[int, List[str]]:
    """Committed-prefix comparison of matched points (prefix mode)."""
    left_points = {_point_key(point): point for point in left.get("points") or ()}
    right_points = {_point_key(point): point for point in right.get("points") or ()}
    mismatched = 0
    compared = 0
    for key in sorted(set(left_points) | set(right_points), key=str):
        label = f"{key[0]} seed {key[1]}"
        left_point = left_points.get(key)
        right_point = right_points.get(key)
        if left_point is None or right_point is None:
            side = "left" if right_point is None else "right"
            lines.append(f"  [MISSING] {label}: only present in {side} artifact")
            mismatched += 1
            continue
        compared += 1
        comparison = compare_prefixes(
            _prefix_chain(left_point), _prefix_chain(right_point)
        )
        if comparison.consistent:
            lines.append(
                f"  [OK] {label}: committed prefixes consistent "
                f"({comparison.describe()})"
            )
        elif comparison.common_prefix >= min_prefix:
            lines.append(f"  [PREFIX] {label}: {comparison.describe()}")
        else:
            mismatched += 1
            lines.append(
                f"  [DIVERGED] {label}: common committed prefix "
                f"{comparison.common_prefix} below the required {min_prefix} "
                f"({comparison.describe()})"
            )
    if not compared and not mismatched:
        lines.append("  no points to compare")
    lines.append(f"{compared} point(s) compared, {mismatched} mismatched")
    return (DIFF_MISMATCH if mismatched else DIFF_MATCH), lines


def diff_artifact_files(
    left_path: str,
    right_path: str,
    prefix: bool = False,
    min_prefix: int = 1,
) -> Tuple[int, List[str]]:
    """File-level wrapper around :func:`diff_artifacts`."""
    return diff_artifacts(
        load_artifact(left_path),
        load_artifact(right_path),
        prefix=prefix,
        min_prefix=min_prefix,
    )
