"""Observability: structured tracing across every layer of the stack.

Attach a :class:`Tracer` to a kernel before building a scenario and
every layer (event dispatch, ORB requests, per-hop network behaviour,
CPU scheduling, reserves, QuO contracts) emits typed, correlated
records into its sinks::

    from repro.obs import JsonlSink, LatencyBreakdown, Tracer

    tracer = Tracer(sinks=[JsonlSink("run.jsonl"), LatencyBreakdown()])
    tracer.attach(kernel)
    ...build and run...
    tracer.close()

Tracing is opt-in and free when off; with it on, simulation results
are unchanged (the tracer only observes).
"""

from repro.obs.breakdown import REQUEST_STAGES, LatencyBreakdown
from repro.obs.sinks import JsonlSink, RingBufferSink, TraceSink, read_jsonl
from repro.obs.trace import (
    LAYERS,
    PHASE_BEGIN,
    PHASE_END,
    PHASE_INSTANT,
    TraceRecord,
    Tracer,
)

__all__ = [
    "JsonlSink",
    "LAYERS",
    "LatencyBreakdown",
    "PHASE_BEGIN",
    "PHASE_END",
    "PHASE_INSTANT",
    "REQUEST_STAGES",
    "RingBufferSink",
    "TraceRecord",
    "TraceSink",
    "Tracer",
    "read_jsonl",
]
