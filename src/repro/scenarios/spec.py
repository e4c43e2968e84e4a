"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes a complete adversarial/network scenario
— committee and load presets, a phased timeline of fault injections,
network disturbances, and a workload shape — independent of the
simulator objects that enact it.  Specs serialize to and from plain-JSON
dictionaries (with schema validation on the way in), and hash to a
deterministic :meth:`ScenarioSpec.scenario_digest` so that experiment
artifacts can state precisely *which* scenario produced them.

The compiler (:func:`compile_spec`) lowers a spec into the existing
experiment layer: one :class:`~repro.sim.experiment.ExperimentConfig` per
(committee size, protocol, load) point, with fault timelines materialized
as :class:`~repro.faults.base.FaultPlan` objects.  Compilation is exactly
faithful to the hand-written configurations the ``examples/`` scripts
used before the scenario engine existed — the test suite pins this — so
a scenario run reproduces those reports byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from functools import partial
from typing import Any, Dict, List, Literal, Mapping, Optional, Tuple, Union

from repro.behavior.adversarial import (
    EquivocationPolicy,
    LazyLeaderPolicy,
    ReputationGamingPolicy,
    SilentFanoutPolicy,
    VoteWithholdingPolicy,
)
from repro.behavior.coordination import (
    AdaptiveEquivocationPolicy,
    AdaptiveSilentFanoutPolicy,
    CoalitionGamingPolicy,
    ColludingSilencePolicy,
)
from repro.core.scoring import scoring_rule_names
from repro.committee import Committee
from repro.crypto.hashing import digest_hex
from repro.errors import ConfigurationError
from repro.faults.base import FaultPlan, head_validators, tail_validators
from repro.faults.behavior import BehaviorFault, validate_behavior_windows
from repro.faults.crash import CrashFault, CrashRecoveryFault
from repro.faults.partition import (
    NetworkDisturbanceFault,
    PartitionPlan,
    isolate_tail_fraction,
)
from repro.faults.slow import SlowValidatorFault, degrade_fraction
from repro.sim.experiment import ExperimentConfig, PROTOCOL_HAMMERHEAD
from repro.sim.runner import build_committee
from repro.workload.phases import average_tps, burst_phases

# Coalition fault kinds: the selected validators share one
# AdversaryCoordinator per fault window (colluding attacks).
COALITION_FAULT_KINDS = (
    "colluding-silence",
    "adaptive-dos",
    "coalition-gaming",
)
# Behavior-policy fault kinds (compiled to BehaviorFault plans installing
# the matching repro.behavior policy on a timeline).
BEHAVIOR_FAULT_KINDS = (
    "vote-withholding",
    "equivocate",
    "silent-fanout",
    "lazy-leader",
    "reputation-gaming",
    "adaptive-equivocation",
) + COALITION_FAULT_KINDS
# Behavior kinds that aim at victims (``targets`` / ``target_count``).
TARGETED_FAULT_KINDS = ("equivocate", "silent-fanout", "colluding-silence")
# Fault kinds understood by the timeline.
FAULT_KINDS = (
    "crash",
    "crash-recovery",
    "slow",
) + BEHAVIOR_FAULT_KINDS
# The optional FaultSpec fields and the kinds that take them; every other
# kind must leave the field unset.
_FAULT_OPTIONS = {
    "recover_at": ("crash-recovery",),
    "end": ("slow",) + BEHAVIOR_FAULT_KINDS,
    "targets": TARGETED_FAULT_KINDS,
    "target_count": TARGETED_FAULT_KINDS,
    "window": ("reputation-gaming",),
    "coalition": COALITION_FAULT_KINDS,
    "stride": COALITION_FAULT_KINDS,
}
# Workload shapes understood by the compiler, and the stake distributions
# a committee can have (``repro.sim.runner.build_committee``).
WorkloadKind = Literal["constant", "burst"]
StakeKind = Literal["equal", "geometric"]

# Version tag embedded in serialized specs; bump on incompatible changes.
SPEC_VERSION = 1
# Fields added after version 1 shipped.  ``to_dict`` omits them at their
# defaults, so a spec that does not use them keeps the canonical form,
# and the scenario digest, that earlier revisions recorded.
_AFTER_V1 = frozenset(
    ("partition_failover", "scoring_rules", "targets", "target_count", "window", "coalition", "stride")
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _is_number(value: Any) -> bool:
    """A finite int or float.

    JSON ``true``/``false`` must not pass as 1/0, and Python's ``json``
    reads ``Infinity`` and ``NaN``: an infinite load never finishes a run
    and a NaN delta disables the delay cap.  An int past the float range
    is refused too (``math.isfinite`` raises on it).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# A timeline instant: either an absolute number of seconds, or a small
# committee-size-relative expression ``{"base": b, "per_validator": p}``
# resolved to ``b + p * committee_size`` per sweep point at compile time
# (the per-point scenario axes of the roadmap, minimal form).
TimeExpr = Union[int, float, Mapping]

_TIME_EXPR_KEYS = frozenset(("base", "per_validator"))


def _validate_time(value: Optional[TimeExpr], field: str) -> None:
    if value is None:
        return
    if isinstance(value, Mapping):
        unknown = set(value) - _TIME_EXPR_KEYS
        _require(not unknown, f"unknown {field!r} expression keys: {sorted(unknown)}")
        _require(bool(value), f"a {field!r} expression needs base and/or per_validator")
        for entry in value.values():
            _require(_is_number(entry), f"{field!r} expression values must be numbers")
            _require(entry >= 0.0, f"{field!r} expression values must be non-negative")
        return
    _require(_is_number(value), f"{field!r} must be a number or a time expression")
    _require(value >= 0.0, f"{field!r} must be non-negative")


def resolve_time(value: Optional[TimeExpr], committee_size: int) -> Optional[float]:
    """Resolve a :data:`TimeExpr` against a concrete committee size."""
    if value is None:
        return None
    if isinstance(value, Mapping):
        return float(value.get("base", 0.0)) + float(
            value.get("per_validator", 0.0)
        ) * committee_size
    return float(value)


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One fault-injection entry on the scenario timeline.

    The affected validators are chosen by exactly one selector:

    * ``validators`` — explicit ids;
    * ``count`` — the ``count`` highest-indexed validators (benchmarking
      convention, observer protected);
    * ``fraction`` — like ``count`` but as a committee fraction;
    * ``max_faulty`` — the maximum tolerable ``f``.

    Timeline instants (``at``, ``recover_at``, ``end``) accept either
    absolute seconds or a committee-size-relative expression
    ``{"base": b, "per_validator": p}`` resolved per sweep point.

    The targeted behavior kinds (``equivocate``, ``silent-fanout``,
    ``colluding-silence``) pick their *victims* with ``targets`` (explicit
    ids) or ``target_count`` (the lowest-indexed non-observer validators —
    the mirror of the attacker tail convention); ``window`` is the
    honest-round window of ``reputation-gaming``, and ``extra_delay``
    doubles as the ``lazy-leader`` proposal delay.

    The coalition kinds (``colluding-silence``, ``adaptive-dos``,
    ``coalition-gaming``) may name their members explicitly with the
    ``coalition`` selector (counts as the one selector) or fall back to
    the tail convention like any other fault; either way the members
    share one deterministic :class:`AdversaryCoordinator` per fault
    window.  ``stride`` throttles the coalition's duty rotation (attack
    one in every ``len(coalition) * stride`` anchors).
    """

    kind: str
    validators: Tuple[int, ...] = ()
    count: Optional[int] = None
    fraction: Optional[float] = None
    max_faulty: bool = False
    at: TimeExpr = 0.0
    recover_at: Optional[TimeExpr] = None  # crash-recovery only
    extra_delay: float = 0.5  # slow and lazy-leader
    end: Optional[TimeExpr] = None  # slow and behavior kinds
    targets: Tuple[int, ...] = ()  # targeted kinds: explicit victims
    target_count: Optional[int] = None  # like targets, head-of-committee
    window: Optional[int] = None  # reputation-gaming only
    coalition: Tuple[int, ...] = ()  # coalition kinds: explicit members
    stride: Optional[int] = None  # coalition kinds: duty rotation throttle

    def validate(self) -> "FaultSpec":
        _require(self.kind in FAULT_KINDS, f"unknown fault kind {self.kind!r}")
        for name, kinds in _FAULT_OPTIONS.items():
            if getattr(self, name) not in (None, ()):
                _require(
                    self.kind in kinds,
                    f"{self.kind!r} does not take {name} (kinds that do: {', '.join(kinds)})",
                )
        _require(len(set(self.coalition)) == len(self.coalition), "coalition members must be distinct")
        if self.stride is not None:
            _require(self.stride >= 1, "the duty stride must be at least 1")
        selectors = [
            bool(self.validators),
            self.count is not None,
            self.fraction is not None,
            self.max_faulty,
            bool(self.coalition),
        ]
        _require(
            sum(selectors) == 1,
            f"fault {self.kind!r} needs exactly one selector "
            "(validators, count, fraction, max_faulty"
            + (", or coalition)" if self.kind in COALITION_FAULT_KINDS else ")"),
        )
        if self.count is not None:
            _require(self.count >= 1, "a fault count must be at least 1")
        if self.fraction is not None:
            _require(0.0 < self.fraction <= 1.0, "a fault fraction must lie in (0, 1]")
        for name in ("at", "recover_at", "end"):
            _validate_time(getattr(self, name), name)
        _require(
            self.kind != "crash-recovery" or self.recover_at is not None,
            "crash-recovery needs recover_at after the crash time",
        )
        # Committee-relative instants are ordered once resolved, at compile.
        if _is_number(self.at) and _is_number(self.recover_at):
            _require(self.recover_at > self.at, "crash-recovery needs recover_at after the crash time")
        if _is_number(self.at) and _is_number(self.end):
            _require(self.end > self.at, "a fault window must close after it opens")
        if self.kind in ("slow", "lazy-leader"):
            _require(self.extra_delay > 0.0, f"a {self.kind} fault needs a positive extra delay")
        _require(
            not (self.targets and self.target_count is not None),
            f"{self.kind!r} takes targets or target_count, not both",
        )
        if self.target_count is not None:
            _require(self.target_count >= 1, "target_count must be at least 1")
        if self.window is not None:
            _require(self.window >= 0, "the honest window must be non-negative")
        return self


@dataclasses.dataclass(frozen=True)
class PartitionSpec:
    """A network partition window.

    Either explicit ``groups`` or ``isolate_fraction`` (cut the tail
    fraction of the committee off as a minority group).
    """

    groups: Tuple[Tuple[int, ...], ...] = ()
    isolate_fraction: Optional[float] = None
    start: float = 0.0
    end: Optional[float] = None

    def validate(self) -> "PartitionSpec":
        _require(
            bool(self.groups) != (self.isolate_fraction is not None),
            "a partition needs exactly one of groups or isolate_fraction",
        )
        if self.isolate_fraction is not None:
            _require(
                0.0 < self.isolate_fraction < 1.0,
                "isolate_fraction must lie in (0, 1)",
            )
        _require(self.start >= 0.0, "partition times must be non-negative")
        if self.end is not None:
            _require(self.end > self.start, "a partition must heal after it forms")
        return self


@dataclasses.dataclass(frozen=True)
class DisturbanceSpec:
    """A fabric-wide jitter and/or loss window."""

    jitter: float = 0.0
    loss_rate: float = 0.0
    start: float = 0.0
    end: Optional[float] = None

    def validate(self) -> "DisturbanceSpec":
        _require(self.jitter >= 0.0, "jitter must be non-negative")
        _require(0.0 <= self.loss_rate < 1.0, "the loss rate must lie in [0, 1)")
        _require(
            self.jitter > 0.0 or self.loss_rate > 0.0,
            "a disturbance needs jitter, loss, or both",
        )
        _require(self.start >= 0.0, "disturbance times must be non-negative")
        if self.end is not None:
            _require(self.end > self.start, "a disturbance window must close after it opens")
        return self


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """The shape of client load over the run.

    ``constant`` compiles to the classic fixed-rate path; ``burst``
    compiles to a piecewise-constant :class:`~repro.workload.phases.LoadPhase`
    profile starting at ``LOAD_START`` (the same 0.5 s client warm-up the
    fixed-rate path uses): ``tps`` with one ``burst_tps`` window.
    """

    kind: WorkloadKind = "constant"
    tps: float = 1000.0
    burst_tps: float = 0.0
    burst_start: float = 0.0
    burst_end: float = 0.0

    def validate(self) -> "WorkloadSpec":
        _require(self.kind in typing.get_args(WorkloadKind), f"unknown workload kind {self.kind!r}")
        _require(self.tps >= 0.0, "the workload rate must be non-negative")
        if self.kind == "burst":
            _require(self.burst_tps > 0.0, "a burst needs a positive burst rate")
            _require(
                self.burst_end > self.burst_start >= 0.0,
                "a burst window must close after it opens",
            )
        return self


# Client load starts 0.5 s into the run, matching the constant-rate path.
LOAD_START = 0.5


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """Full declarative description of one scenario.

    A scenario fans out over ``committee_sizes`` x ``protocols`` x
    ``loads`` (each point one :class:`ExperimentConfig`); the fault
    timeline, partitions, disturbances, and workload shape apply to every
    point.  When ``loads`` is empty the workload spec's nominal rate is
    the single load point.
    """

    name: str
    description: str = ""
    protocols: Tuple[str, ...] = (PROTOCOL_HAMMERHEAD,)
    committee_sizes: Tuple[int, ...] = (10,)
    loads: Tuple[float, ...] = ()
    workload: WorkloadSpec = WorkloadSpec()
    duration: float = 30.0
    warmup: float = 5.0
    seed: int = 1
    stake: StakeKind = "equal"
    commits_per_schedule: int = 10
    scoring: str = "hammerhead"
    # The scoring-rule sweep axis: when non-empty, the scenario fans out
    # over these rules (each compiled point carries one) instead of the
    # single ``scoring`` value — the axis the attack x rule ablation
    # matrix sweeps.  Empty keeps the spec's canonical form (and digest)
    # identical to earlier revisions.
    scoring_rules: Tuple[str, ...] = ()
    gst: float = 0.0
    delta: float = 2.0
    faults: Tuple[FaultSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    disturbances: Tuple[DisturbanceSpec, ...] = ()
    # Clients fail over away from minority-side validators while a
    # partition window is open (see SimulationRunner).  Off by default:
    # failover changes submission patterns, so the historical partition
    # scenario digests only hold with the flag off.
    partition_failover: bool = False

    # -- validation -----------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Check the spec, then compile every point.

        ``ExperimentConfig.validate`` vets each lowered point, and behavior
        windows are checked for overlap at each committee size, with
        selectors and times resolved.
        """
        _require(bool(self.name), "a scenario needs a name")
        _require(bool(self.protocols), "a scenario needs at least one protocol")
        _require(bool(self.committee_sizes), "a scenario needs at least one committee size")
        for size in self.committee_sizes:
            _require(size >= 1, "committee sizes must be positive")
        self.workload.validate()
        _require(self.duration > 0.0, "the duration must be positive")
        if self.workload.kind == "burst":
            # The load window is [LOAD_START, duration]; a burst outside it
            # would fail only at compile time otherwise.
            _require(
                LOAD_START <= self.workload.burst_start
                and self.workload.burst_end <= self.duration,
                f"the burst window must lie within [{LOAD_START}s, duration]",
            )
        # The compile never sees ``scoring`` under a ``scoring_rules`` axis,
        # nor ``loads`` under a phased workload, so both are checked here.
        known = scoring_rule_names()
        for field, rules in (("scoring", (self.scoring,)), ("scoring_rules", self.scoring_rules)):
            for rule in rules:
                _require(rule in known, f"unknown scoring rule {rule!r} in {field} (known: {', '.join(known)})")
        _require(all(load >= 0.0 for load in self.loads), "loads must be non-negative")
        _require(
            len(set(self.scoring_rules)) == len(self.scoring_rules),
            "scoring_rules must not repeat a rule",
        )
        tail_crashes = 0
        for fault in self.faults:
            fault.validate()
            if fault.kind == "crash" and not fault.validators:
                tail_crashes += 1
        _require(
            tail_crashes <= 1,
            "at most one permanent crash fault may use a tail selector (count/"
            "fraction/max_faulty); give later waves explicit validators",
        )
        for partition in self.partitions:
            partition.validate()
        # Partition windows must not overlap: the network holds a single
        # partition at a time (last-wins), so overlapping windows would
        # silently enact a different adversary than the spec describes.
        # Disturbance windows may overlap freely — they stack.
        partition_windows = sorted(
            (partition.start, partition.end) for partition in self.partitions
        )
        for (_, first_end), (second_start, _) in zip(
            partition_windows, partition_windows[1:]
        ):
            _require(
                first_end is not None and first_end <= second_start,
                "partition windows must not overlap",
            )
        for disturbance in self.disturbances:
            disturbance.validate()
        _compile_points(self)
        return self

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON dictionary form (tuples become lists).

        Fields introduced after spec version 1 shipped (``_AFTER_V1``) are
        omitted at their default values, and the keys of retired options
        (``_RETIRED_V1``) kept at their former defaults: the canonical
        form (and therefore :meth:`scenario_digest`) of a spec is
        identical to what earlier revisions produced, so previously
        recorded scenario digests remain valid.
        """
        data = _plain(self)
        data["version"] = SPEC_VERSION
        return json.loads(json.dumps(data))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse and validate a dictionary produced by :meth:`to_dict`.

        The dataclass annotations are the schema (see :func:`_parse`).
        Unknown keys, wrong field types, and semantic violations all
        raise :class:`~repro.errors.ConfigurationError`.
        """
        _require(isinstance(data, Mapping), "a scenario spec must be a JSON object")
        payload = dict(data)
        version = payload.pop("version", SPEC_VERSION)
        _require(
            version == SPEC_VERSION,
            f"unsupported scenario spec version {version!r} (expected {SPEC_VERSION})",
        )
        return _parse(payload, cls, "scenario spec").validate()

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"invalid scenario JSON: {error}") from None
        return cls.from_dict(data)

    # -- identity -------------------------------------------------------------

    def scenario_digest(self) -> str:
        """Deterministic content digest of the spec.

        Computed over the canonical serialization of the dictionary form,
        so structurally equal specs always hash identically regardless of
        construction order or process.
        """
        return digest_hex("scenario-spec", self.to_dict())

    # -- derivation -----------------------------------------------------------

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """Copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes).validate()

    def without_faults(self) -> "ScenarioSpec":
        """The healthy twin: same run, empty fault/disturbance timelines."""
        return self.with_overrides(faults=(), partitions=(), disturbances=())

    def smoke(self) -> "ScenarioSpec":
        """A tiny-committee, short-horizon variant for CI smoke runs.

        Committee sizes shrink to 4 (1 tolerable fault), the horizon to at
        most 15 s, and loads are capped; explicit validator lists are
        remapped onto distinct members of the shrunk committee (never the
        observer), and only the first *permanent* crash survives — a
        4-member committee cannot lose two validators forever and keep a
        quorum.  Best-effort: the smoke variant preserves the *kind* of
        adversity, not its magnitude.
        """
        duration = min(self.duration, 15.0)
        scale = duration / self.duration
        smoke_committee = 4

        def scaled(time: float) -> float:
            return round(time * scale, 3)

        def scaled_time(value: Optional[TimeExpr]) -> Optional[float]:
            # Committee-relative expressions are resolved against the
            # smoke committee before scaling (the smoke variant has one
            # concrete committee size, so nothing is lost).
            if value is None:
                return None
            return round(resolve_time(value, smoke_committee) * scale, 3)

        # Distinct stand-in validators for explicit selections (committee
        # of 4, observer 0 protected).
        smoke_ids = (3, 2, 1)
        next_smoke_id = 0
        faults = []
        seen_permanent_crash = False
        for fault in self.faults:
            if fault.kind == "crash":
                if seen_permanent_crash:
                    continue
                seen_permanent_crash = True
            changes: Dict[str, Any] = {
                "at": scaled_time(fault.at),
                "recover_at": scaled_time(fault.recover_at),
                "end": scaled_time(fault.end),
            }
            if fault.validators:
                changes["validators"] = (smoke_ids[next_smoke_id % len(smoke_ids)],)
                next_smoke_id += 1
            if fault.count is not None:
                changes["count"] = 1
            if fault.coalition:
                # A coalition shrinks to two distinct members so the
                # coordination channel is still exercised at smoke scale.
                changes["coalition"] = (3, 2)
            if fault.kind in TARGETED_FAULT_KINDS:
                # Victim selections shrink to one head victim; explicit
                # ids may not exist in the 4-member committee.
                changes["targets"] = ()
                changes["target_count"] = 1
            faults.append(dataclasses.replace(fault, **changes))
        partitions = tuple(
            dataclasses.replace(
                partition,
                groups=(),
                isolate_fraction=partition.isolate_fraction or 0.25,
                start=scaled(partition.start),
                end=None if partition.end is None else scaled(partition.end),
            )
            for partition in self.partitions
        )
        disturbances = tuple(
            dataclasses.replace(
                disturbance,
                start=scaled(disturbance.start),
                end=None if disturbance.end is None else scaled(disturbance.end),
            )
            for disturbance in self.disturbances
        )
        workload = self.workload
        if workload.kind == "burst":
            # Clamp the scaled window into the valid [LOAD_START, duration]
            # load window so the shrunk spec always re-validates.
            burst_start = max(LOAD_START, scaled(workload.burst_start))
            burst_end = min(duration, max(burst_start + 0.5, scaled(workload.burst_end)))
            workload = dataclasses.replace(
                workload,
                tps=min(workload.tps, 200.0),
                burst_tps=min(workload.burst_tps, 600.0),
                burst_start=burst_start,
                burst_end=burst_end,
            )
        else:
            workload = dataclasses.replace(workload, tps=min(workload.tps, 300.0))
        return self.with_overrides(
            committee_sizes=(4,),
            loads=tuple(min(load, 300.0) for load in self.loads[:1]),
            duration=duration,
            warmup=min(self.warmup * scale, duration / 3.0),
            faults=tuple(faults),
            partitions=partitions,
            disturbances=disturbances,
            workload=workload,
        )


# -- the JSON schema ---------------------------------------------------------

_TYPE_NAMES = {int: "an integer", str: "a string", bool: "a boolean"}

# Version-1 keys whose options were retired, each with the one value it
# may still hold (its former default).  The canonical form keeps them at
# that value, so digests recorded before the retirement stay valid, and
# ``_parse`` accepts them at that value only.
_RETIRED_V1: Dict[type, Dict[str, Any]] = {
    ScenarioSpec: {"latency_model": "geo"},
    WorkloadSpec: {"end_tps": 0.0, "steps": 4, "amplitude": 0.0, "period": 0.0},
}


def _plain(value: Any) -> Any:
    """The plain-JSON form of a spec value: ``_AFTER_V1`` fields left at
    their defaults are omitted, and the ``_RETIRED_V1`` keys added."""
    if dataclasses.is_dataclass(value):
        plain = {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if not (field.name in _AFTER_V1 and getattr(value, field.name) == field.default)
        }
        plain.update(_RETIRED_V1.get(type(value), {}))
        return plain
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _parse(value: Any, hint: Any, where: str) -> Any:
    """Check a plain-JSON ``value`` against the field annotation ``hint``.

    The spec dataclasses' annotations are the schema: nested specs are
    JSON objects, ``Tuple[X, ...]`` a list, ``Optional`` admits ``null``,
    a :data:`TimeExpr` is a number or an expression (whose form
    :func:`_validate_time` checks), ``float`` takes any number but a
    boolean, a ``Literal`` one of its values, and ``int`` / ``str`` /
    ``bool`` must match exactly.  A ``_RETIRED_V1`` key is accepted at its
    one value only.  Errors name the path of the offending value, e.g.
    ``scenario spec.faults[0].fraction must be a number``.
    """
    if dataclasses.is_dataclass(hint):
        _require(isinstance(value, Mapping), f"{where} must be a JSON object")
        hints = typing.get_type_hints(hint)
        retired = _RETIRED_V1.get(hint, {})
        unknown = set(value) - set(hints) - set(retired)
        _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")
        for name, fixed in retired.items():
            if name in value:
                _require(
                    _parse(value[name], type(fixed), f"{where}.{name}") == fixed,
                    f"{where}.{name} was retired and may only hold {fixed!r}",
                )
        for field in dataclasses.fields(hint):
            _require(
                field.name in value or field.default is not dataclasses.MISSING,
                f"{where} is missing the {field.name!r} field",
            )
        return hint(
            **{name: _parse(item, hints[name], f"{where}.{name}") for name, item in value.items() if name in hints}
        )
    options = typing.get_args(hint)
    if typing.get_origin(hint) is Literal:
        _require(value in options, f"{where} must be one of {', '.join(map(repr, options))}")
        return value
    if typing.get_origin(hint) is Union:
        if value is None and type(None) in options:
            return None
        if hint in (TimeExpr, Optional[TimeExpr]):
            _require(
                _is_number(value) or isinstance(value, Mapping),
                f"{where} must be a number or a time expression",
            )
            return value
        (inner,) = (option for option in options if option is not type(None))
        return _parse(value, inner, where)
    if typing.get_origin(hint) is tuple:
        _require(isinstance(value, (list, tuple)), f"{where} must be a list")
        return tuple(_parse(item, options[0], f"{where}[{index}]") for index, item in enumerate(value))
    if hint is float:
        _require(_is_number(value), f"{where} must be a number")
        return float(value)
    _require(
        isinstance(value, hint) and (hint is bool or not isinstance(value, bool)),
        f"{where} must be {_TYPE_NAMES[hint]}",
    )
    return value


# -- compilation ------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CompiledPoint:
    """One runnable experiment derived from a scenario."""

    scenario: str
    committee_size: int
    protocol: str
    load: float
    config: ExperimentConfig
    # The scoring rule this point runs under (one entry of the spec's
    # ``scoring_rules`` axis, or its single ``scoring`` value).
    scoring: str = "hammerhead"


def _resolve_tail(committee: Committee, fault: FaultSpec, protect=(0,)) -> Tuple[int, ...]:
    """Resolve a count/fraction/max_faulty selector to concrete validators.

    Delegates to :func:`repro.faults.base.tail_validators`, the single
    definition of the observer-protecting tail convention.
    """
    if fault.max_faulty:
        count = committee.max_faulty
    elif fault.fraction is not None:
        count = max(1, int(round(fault.fraction * committee.size)))
    else:
        count = fault.count or 0
    return tail_validators(committee, count, protect)


def _resolve_targets(fault: FaultSpec, committee: Committee) -> Tuple[int, ...]:
    """Resolve the victim selection of a targeted behavior fault."""
    if fault.targets:
        targets = tuple(v for v in fault.targets if v in committee.validators)
    else:
        targets = head_validators(committee, fault.target_count or 1)
    _require(bool(targets), f"fault {fault.kind!r} selects no targets")
    return targets


def _behavior_factory(fault: FaultSpec, committee: Committee):
    """The picklable policy factory a behavior fault installs per validator."""
    if fault.kind == "vote-withholding":
        return VoteWithholdingPolicy
    if fault.kind == "equivocate":
        return partial(EquivocationPolicy, victims=_resolve_targets(fault, committee))
    if fault.kind == "silent-fanout":
        return partial(SilentFanoutPolicy, targets=_resolve_targets(fault, committee))
    if fault.kind == "lazy-leader":
        return partial(LazyLeaderPolicy, delay=fault.extra_delay)
    if fault.kind == "adaptive-equivocation":
        return partial(AdaptiveEquivocationPolicy)
    if fault.kind == "colluding-silence":
        return partial(
            ColludingSilencePolicy,
            victims=_resolve_targets(fault, committee),
            stride=fault.stride or 1,
        )
    if fault.kind == "adaptive-dos":
        return partial(AdaptiveSilentFanoutPolicy, stride=fault.stride or 3)
    if fault.kind == "coalition-gaming":
        return partial(CoalitionGamingPolicy, stride=fault.stride or 3)
    window = 6 if fault.window is None else fault.window
    return partial(ReputationGamingPolicy, window=window)


def _compile_faults(
    spec: ScenarioSpec, committee: Committee
) -> Tuple[int, float, Tuple[FaultPlan, ...]]:
    """Lower the fault timeline onto one committee.

    Returns ``(builtin_crash_count, builtin_crash_time, extra_plans)``.
    A single tail-selected permanent crash maps onto the config's builtin
    ``faults``/``fault_time`` fields — byte-identical to the hand-written
    pre-scenario configurations — while everything else becomes an
    explicit plan in ``extra_faults``.
    """
    builtin_faults = 0
    builtin_time = 0.0
    plans: List[FaultPlan] = []
    # (validators, start, end, label) of every behavior fault, with
    # selectors and committee-relative times resolved: the exact overlap
    # check, which ScenarioSpec.validate runs for every committee size.
    behavior_windows: List[Tuple[Tuple[int, ...], float, Optional[float], str]] = []
    for fault in spec.faults:
        # Timeline instants resolve per sweep point: a committee-relative
        # expression yields a different concrete time at each size.
        at = resolve_time(fault.at, committee.size)
        recover_at = resolve_time(fault.recover_at, committee.size)
        end = resolve_time(fault.end, committee.size)
        if fault.kind == "crash" and not fault.validators:
            # Tail-selected permanent crash: the builtin path.
            builtin_faults = len(_resolve_tail(committee, fault))
            builtin_time = at
            continue
        if fault.kind in ("crash", "crash-recovery"):
            validators = fault.validators or _resolve_tail(committee, fault)
            validators = tuple(v for v in validators if v in committee.validators)
            _require(bool(validators), f"fault {fault.kind!r} selects no validators")
            if fault.kind == "crash":
                plans.append(CrashFault(validators=validators, at_time=at))
            else:
                _require(
                    recover_at > at,
                    "crash-recovery needs recover_at after the crash time "
                    f"(resolved to {at} and {recover_at} at committee {committee.size})",
                )
                plans.append(
                    CrashRecoveryFault(
                        validators=validators,
                        crash_at=at,
                        recover_at=recover_at,
                    )
                )
        elif fault.kind == "slow":
            _require(
                end is None or end > at,
                "a slow window must close after it opens "
                f"(resolved to {at} and {end} at committee {committee.size})",
            )
            if fault.fraction is not None and not fault.validators:
                plans.append(
                    degrade_fraction(
                        committee,
                        fraction=fault.fraction,
                        extra_delay=fault.extra_delay,
                        start=at,
                        end=end,
                    )
                )
            else:
                validators = fault.validators or _resolve_tail(committee, fault)
                plans.append(
                    SlowValidatorFault(
                        validators=tuple(validators),
                        extra_delay=fault.extra_delay,
                        start=at,
                        end=end,
                    )
                )
        elif fault.kind in BEHAVIOR_FAULT_KINDS:
            validators = (
                fault.coalition or fault.validators or _resolve_tail(committee, fault)
            )
            validators = tuple(v for v in validators if v in committee.validators)
            _require(bool(validators), f"fault {fault.kind!r} selects no validators")
            _require(
                end is None or end > at,
                "a behavior window must close after it opens "
                f"(resolved to {at} and {end} at committee {committee.size})",
            )
            behavior_windows.append((validators, at, end, fault.kind))
            plans.append(
                BehaviorFault(
                    validators=validators,
                    policy_factory=_behavior_factory(fault, committee),
                    start=at,
                    end=end,
                    coordinated=fault.kind in COALITION_FAULT_KINDS,
                )
            )
    if len(behavior_windows) > 1:
        try:
            validate_behavior_windows(behavior_windows)
        except ValueError as error:
            raise ConfigurationError(str(error)) from None
    for partition in spec.partitions:
        if partition.isolate_fraction is not None:
            plans.append(
                isolate_tail_fraction(
                    committee,
                    fraction=partition.isolate_fraction,
                    start=partition.start,
                    end=partition.end,
                )
            )
        else:
            groups = tuple(
                tuple(v for v in group if v in committee.validators)
                for group in partition.groups
            )
            plans.append(PartitionPlan(groups=groups, start=partition.start, end=partition.end))
    for disturbance in spec.disturbances:
        plans.append(
            NetworkDisturbanceFault(
                jitter=disturbance.jitter,
                loss_rate=disturbance.loss_rate,
                start=disturbance.start,
                end=disturbance.end,
            )
        )
    return builtin_faults, builtin_time, tuple(plans)


def _compile_workload(
    spec: ScenarioSpec,
) -> Tuple[Tuple[float, ...], Tuple[Tuple[float, float, float], ...]]:
    """Derive the load points and the phased profile (if any) of a spec."""
    workload = spec.workload
    if workload.kind == "constant":
        loads = spec.loads or (workload.tps,)
        return tuple(loads), ()
    start, end = LOAD_START, spec.duration
    phases = burst_phases(
        base_tps=workload.tps,
        burst_tps=workload.burst_tps,
        burst_start=max(start, workload.burst_start),
        burst_end=min(end, workload.burst_end),
        start=start,
        end=end,
    )
    nominal = round(average_tps(phases), 3)
    return (nominal,), tuple((phase.start, phase.end, phase.tps) for phase in phases)


# The ExperimentConfig knobs a spec carries under the same name.  ``seed``
# and ``scoring`` vary per point, and ``faults`` only shares a name: the
# spec's timeline versus the config's count of built-in crashes.
_SHARED_KNOBS = tuple(
    field.name
    for field in dataclasses.fields(ScenarioSpec)
    if field.name in {knob.name for knob in dataclasses.fields(ExperimentConfig)}
    and field.name not in ("seed", "scoring", "faults")
)


def compile_spec(spec: ScenarioSpec, seed: Optional[int] = None) -> List[CompiledPoint]:
    """Lower ``spec`` into runnable experiment configurations.

    Points are ordered committee-major, then protocol, then load, and a
    scenario run submits them to the sweep engine as one batch in that
    order.  ``seed`` overrides the spec's
    seed (used by multi-seed sweeps).
    """
    return _compile_points(spec.validate(), seed)


def _compile_points(spec: ScenarioSpec, seed: Optional[int] = None) -> List[CompiledPoint]:
    """:func:`compile_spec` without the spec check (which ends by calling this)."""
    run_seed = spec.seed if seed is None else seed
    knobs = {name: getattr(spec, name) for name in _SHARED_KNOBS}
    # The scoring-rule sweep axis: innermost, so existing single-rule
    # scenarios keep their historical compile order (and digests).
    scoring_rules = spec.scoring_rules or (spec.scoring,)
    points: List[CompiledPoint] = []
    for committee_size in spec.committee_sizes:
        # The runner's committee, which the fault selectors resolve against.
        committee = build_committee(
            ExperimentConfig(committee_size=committee_size, stake=spec.stake, seed=spec.seed)
        )
        builtin_faults, builtin_time, plans = _compile_faults(spec, committee)
        loads, load_phases = _compile_workload(spec)
        for protocol in spec.protocols:
            for load in loads:
                for scoring in scoring_rules:
                    config = ExperimentConfig(
                        protocol=protocol,
                        committee_size=committee_size,
                        input_load_tps=load,
                        load_phases=load_phases,
                        faults=builtin_faults,
                        fault_time=builtin_time,
                        extra_faults=plans,
                        scoring=scoring,
                        seed=run_seed,
                        **knobs,
                    ).validate()
                    points.append(
                        CompiledPoint(
                            scenario=spec.name,
                            committee_size=committee_size,
                            protocol=protocol,
                            load=load,
                            config=config,
                            scoring=scoring,
                        )
                    )
    return points
