"""Instrumentation registry: counters, gauges, and histograms.

The registry is the *detailed* tier of instrumentation — it only exists
when a run asks for observability (``ExperimentConfig.trace``), so the
per-message accounting it performs never taxes a plain benchmark run.
The cheap always-on tier (``NetworkStats``, DAG park/GC watermarks, memo
hit counters) lives on the components themselves and is folded together
with a registry snapshot by ``repro.sim.runner``.

Everything snapshots to plain sorted dicts so counter blocks embed
directly in ``ExperimentResult`` and scenario artifact points.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class Histogram:
    """Streaming summary: count / total / min / max (enough to recover a
    mean without retaining samples)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, Any]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total": self.total,
            "mean": mean,
            "min": self.min,
            "max": self.max,
        }


class InstrumentationRegistry:
    """Named counters, gauges, and histograms.

    Not shared across processes: in a parallel sweep each worker builds
    its own registry per run, and the snapshot rides home inside the
    picklable ``ExperimentResult``.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value)

    def count_message(self, message: Any, copies: int = 1) -> None:
        """Account one logical send of ``message`` fanned out ``copies``
        times: per-type message count plus estimated wire bytes."""
        name = type(message).__name__
        self.inc(f"messages.{name}", copies)
        self.inc(f"bytes.{name}", estimate_wire_bytes(message) * copies)

    def snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {}
        if self._counters:
            snap["counters"] = {name: self._counters[name] for name in sorted(self._counters)}
        if self._gauges:
            snap["gauges"] = {name: self._gauges[name] for name in sorted(self._gauges)}
        if self._histograms:
            snap["histograms"] = {
                name: self._histograms[name].snapshot() for name in sorted(self._histograms)
            }
        return snap


# Deterministic wire-size model.  The simulator never serializes
# messages, so "bytes" here is a stable structural estimate — envelope
# plus per-field costs — good for relative comparisons across runs and
# committee sizes, not an exact codec size.
_ENVELOPE_BYTES = 64  # type tag, origin, round, digest, framing
_SIGNER_BYTES = 8
_EDGE_BYTES = 40  # (round, source, digest) reference
_TRANSACTION_BYTES = 128
_VERTEX_HEADER_BYTES = 48
_FRONTIER_ROUND_BYTES = 16  # round number + source bitmask


def _payload_bytes(payload: Any) -> int:
    edges = getattr(payload, "edges", None)
    block = getattr(payload, "block", None)
    if edges is None and block is None:
        return _VERTEX_HEADER_BYTES
    size = _VERTEX_HEADER_BYTES
    if edges is not None:
        size += _EDGE_BYTES * len(edges)
    if block is not None:
        size += _TRANSACTION_BYTES * len(block)
    return size


def estimate_wire_bytes(message: Any) -> int:
    """Structural wire-size estimate for any protocol message."""
    certificates = getattr(message, "certificates", None)
    if certificates is not None:
        return _ENVELOPE_BYTES + sum(estimate_wire_bytes(cert) for cert in certificates)
    size = _ENVELOPE_BYTES
    payload = getattr(message, "payload", None)
    if payload is not None:
        size += _payload_bytes(payload)
    signers = getattr(message, "signers", None)
    if signers is not None:
        size += _SIGNER_BYTES * len(signers)
    vertices = getattr(message, "vertices", None)
    if vertices is not None:
        size += sum(_payload_bytes(vertex) for vertex in vertices)
    missing = getattr(message, "missing", None)
    if missing is not None:
        size += _EDGE_BYTES * len(missing)
    held = getattr(message, "held", None)
    if held is not None:
        size += _FRONTIER_ROUND_BYTES * len(held)
    return size
