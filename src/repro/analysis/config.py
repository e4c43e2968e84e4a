"""Analyzer configuration: scopes, allowlists, and repository defaults.

The rules themselves are generic AST machinery; everything
repository-specific — which modules form the commit path, which modules
carry wire messages, where wall-clock reads are tolerable — lives in an
:class:`AnalyzerConfig`.  Tests build small configs over toy packages;
the CLI and CI use :func:`repo_config`, the single source of truth for
what "the digest-affecting core" means in this repository.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional, Tuple

# Modules whose source defines the commit path: the ordering digest is
# a fold over what BullsharkConsensus emits, which is a function of the
# DAG store contents, the vertex/canonical hashing, and the leader
# schedule.  The purity closure is the transitive import closure of
# these roots within the scanned package.
DEFAULT_PURITY_ROOTS: Tuple[str, ...] = (
    "repro.consensus.bullshark",
    "repro.dag.store",
    "repro.crypto.hashing",
    "repro.schedule.base",
    "repro.schedule.round_robin",
)

# Digest-adjacent modules that are not imported by the commit path but
# decide *what reaches it* (vertex arrival order, certificate contents,
# schedule updates), so DET003's unordered-iteration discipline applies
# to them too.
DEFAULT_UNORDERED_EXTRAS: Tuple[str, ...] = (
    "repro.node.validator",
    "repro.rbc.base",
    "repro.rbc.certified",
    "repro.rbc.messages",
    "repro.network.transport",
    "repro.sim.runner",
    "repro.core.manager",
    "repro.core.scoring",
    "repro.core.scores",
    "repro.core.schedule_change",
)

# Float arithmetic scope (DET004): stake fractions, reputation scores,
# and the transport whose float delivery timestamps decide arrival
# order.
DEFAULT_FLOAT_MODULES: Tuple[str, ...] = (
    "repro.committee.stake",
    "repro.core.scoring",
    "repro.core.scores",
    "repro.core.schedule_change",
    "repro.core.manager",
    "repro.network.transport",
)

# Wire-message scope (DET005).
DEFAULT_MESSAGE_MODULES: Tuple[str, ...] = (
    "repro.rbc.messages",
    "repro.node.messages",
)

# Modules allowed to read the wall clock (DET002).  The netexec trio is
# the real-network backend: monotonic clocks and sockets are its job, its
# digests are protected by lockstep content-determinism instead of
# virtual time (see repro/netexec/lockstep.py — itself pure and
# deliberately *not* allowlisted), and none of these modules is ever
# imported by the purity closure.
DEFAULT_WALLCLOCK_ALLOWLIST: Tuple[str, ...] = (
    "repro.netexec.clock",
    "repro.netexec.transport",
    "repro.netexec.runner",
)


@dataclasses.dataclass(frozen=True)
class AnalyzerConfig:
    """Where to scan and which module plays which role."""

    root: Path
    package: str = "repro"
    purity_roots: Tuple[str, ...] = DEFAULT_PURITY_ROOTS
    wallclock_allowlist: Tuple[str, ...] = DEFAULT_WALLCLOCK_ALLOWLIST
    unordered_extra_modules: Tuple[str, ...] = DEFAULT_UNORDERED_EXTRAS
    float_modules: Tuple[str, ...] = DEFAULT_FLOAT_MODULES
    message_modules: Tuple[str, ...] = DEFAULT_MESSAGE_MODULES
    baseline_path: Optional[Path] = None


def repo_config(repo_root: Optional[Path] = None) -> AnalyzerConfig:
    """The configuration for this repository's own source tree.

    ``repo_root`` defaults to the repository containing this file
    (``src/repro/analysis/config.py`` -> three parents up), so the CLI
    works from any working directory.
    """
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    return AnalyzerConfig(
        root=repo_root / "src",
        baseline_path=repo_root / "analysis" / "purity_baseline.json",
    )
