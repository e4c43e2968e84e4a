"""Digest-neutral observability: deterministic tracing + instrumentation.

Import surface is deliberately lean: only the trace core and the counter
registry live here.  The CLI is *never* imported from this package root
so that the hot modules which import :mod:`repro.obs.trace` never drag
the query and rendering code in with it.
"""

from repro.obs.registry import InstrumentationRegistry
from repro.obs.trace import (
    EVENT_KINDS,
    NULL_TRACER,
    MemoryTracer,
    NullTracer,
    Tracer,
)

__all__ = [
    "EVENT_KINDS",
    "NULL_TRACER",
    "InstrumentationRegistry",
    "MemoryTracer",
    "NullTracer",
    "Tracer",
]
