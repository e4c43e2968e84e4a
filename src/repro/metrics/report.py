"""Human-readable result reports.

The benchmark harness prints one row per (system, committee size, faults,
load) combination, mirroring the series plotted in Figures 1 and 2 of the
paper.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence, Union


@dataclasses.dataclass
class PerformanceReport:
    """One data point: a single run of one system under one configuration."""

    system: str
    committee_size: int
    faults: int
    input_load_tps: float
    duration: float
    throughput_tps: float
    avg_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    stdev_latency_s: float
    committed_transactions: int
    submitted_transactions: int
    commits: int
    skipped_anchor_rounds: int
    leader_timeouts: int
    schedule_changes: int
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        data = dataclasses.asdict(self)
        data.update(self.extra)
        return data

    def label(self) -> str:
        fault_text = f", {self.faults} faulty" if self.faults else ""
        return f"{self.system} - {self.committee_size} nodes{fault_text}"


_COLUMNS = (
    ("system", "System"),
    ("committee_size", "Nodes"),
    ("faults", "Faults"),
    ("input_load_tps", "Load (tx/s)"),
    ("throughput_tps", "Throughput (tx/s)"),
    ("avg_latency_s", "Avg lat (s)"),
    ("p50_latency_s", "p50 (s)"),
    ("p95_latency_s", "p95 (s)"),
    ("skipped_anchor_rounds", "Skipped"),
    ("schedule_changes", "Sched chg"),
)


def format_table(
    reports: Sequence[Union[PerformanceReport, Mapping[str, object]]],
    title: Optional[str] = None,
) -> str:
    """Render reports (or their ``as_dict()`` form, as artifacts store
    them) as a fixed-width text table."""
    headers = [header for _, header in _COLUMNS]
    rows: List[List[str]] = []
    for report in reports:
        data = report.as_dict() if isinstance(report, PerformanceReport) else report
        row = []
        for key, _ in _COLUMNS:
            value = data.get(key, "")
            if isinstance(value, float):
                row.append(f"{value:.2f}")
            else:
                row.append(str(value))
        rows.append(row)
    widths = [
        max(len(headers[index]), *(len(row[index]) for row in rows)) if rows else len(headers[index])
        for index in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(value.ljust(width) for value, width in zip(row, widths)))
    return "\n".join(lines)
