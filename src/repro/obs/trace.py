"""Structured tracing for the simulation stack.

A :class:`Tracer` records typed, sim-time-stamped events and spans
from every layer of the stack — kernel event dispatch, ORB request
lifecycle, per-hop network behaviour, CPU scheduling, reserve
replenishment, and QuO region transitions.  The paper's evaluation
reasons about *where* end-to-end latency accrues (ORB marshaling, OS
scheduling, per-hop queueing); traces make that attribution directly
observable instead of inferable from endpoint series.

Design constraints
------------------

*Zero cost when off.*  The tracer is attached to the
:class:`~repro.sim.kernel.Kernel` (``kernel.tracer``), which every
component already holds.  Instrumentation sites read the attribute and
test for ``None``; with no tracer attached nothing else happens — no
record allocation, no string formatting.

*Never perturbs the simulation.*  Emitting a record only appends to
sinks.  The tracer never schedules events, never consumes random
numbers, and never mutates component state, so an experiment's metrics
are bit-identical with tracing on or off (enforced by
``tests/properties/test_trace_invariants.py``).

Spans use *natural* correlation ids already present in the simulation
(GIOP request ids, flow names plus frame counters), so no tracer-side
id allocation is needed and begin/end pairs match across hosts: the
whole distributed system shares one kernel, hence one tracer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.sinks import RingBufferSink, TraceSink

#: Every layer an instrumentation site emits under; what a tracer's
#: ``layers`` allow-list (and ``repro trace --layers``) may name.
LAYERS = ("sim", "os", "net", "orb", "av", "quo", "fault", "fluid", "pubsub")

#: Record phases, Chrome-trace style: begin / end / instant.
PHASE_BEGIN = "B"
PHASE_END = "E"
PHASE_INSTANT = "I"

_JSON_SAFE = (str, int, float, bool, type(None))


class TraceRecord:
    """One trace event.

    Attributes
    ----------
    time:
        Simulated time the record was emitted.
    layer:
        Subsystem: one of :data:`LAYERS`.
    kind:
        Dotted event name within the layer (e.g. ``"hop.enqueue"``).
    phase:
        ``"B"`` / ``"E"`` for span begin/end, ``"I"`` for instants.
    span:
        Correlation id pairing a begin with its end (natural ids:
        ``"req:17"``, ``"frame:avflow:uav1:42"``).
    flow:
        Network flow id, when the event belongs to one.
    request:
        GIOP request id, when the event belongs to one.
    fields:
        Layer-specific extra data (small JSON-safe values).
    """

    __slots__ = ("time", "layer", "kind", "phase", "span", "flow",
                 "request", "fields")

    def __init__(
        self,
        time: float,
        layer: str,
        kind: str,
        phase: str = PHASE_INSTANT,
        span: Optional[str] = None,
        flow: Optional[str] = None,
        request: Optional[int] = None,
        fields: Optional[dict] = None,
    ) -> None:
        self.time = time
        self.layer = layer
        self.kind = kind
        self.phase = phase
        self.span = span
        self.flow = flow
        self.request = request
        self.fields = fields

    def to_dict(self) -> dict:
        """JSON-safe dict form (used by the JSONL exporter)."""
        out = {"t": self.time, "layer": self.layer, "kind": self.kind,
               "ph": self.phase}
        if self.span is not None:
            out["span"] = self.span
        if self.flow is not None:
            out["flow"] = self.flow
        if self.request is not None:
            out["req"] = self.request
        if self.fields:
            out.update({
                key: (value if isinstance(value, _JSON_SAFE) else str(value))
                for key, value in self.fields.items()
            })
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceRecord t={self.time:.6f} {self.layer}.{self.kind} "
            f"{self.phase} span={self.span!r}>"
        )


class Tracer:
    """Collects :class:`TraceRecord` objects into one or more sinks.

    Parameters
    ----------
    sinks:
        Sink objects receiving every record; defaults to a single
        bounded :class:`~repro.obs.sinks.RingBufferSink`.
    layers:
        Optional allow-list of layer names; records from other layers
        are discarded before allocation of anything but the check.
    """

    def __init__(
        self,
        sinks: Optional[Iterable[TraceSink]] = None,
        layers: Optional[Iterable[str]] = None,
    ) -> None:
        self.sinks: List[TraceSink] = (
            list(sinks) if sinks is not None else [RingBufferSink()]
        )
        self._layers = frozenset(layers) if layers is not None else None
        self._kernel = None
        #: Records emitted (post layer filter).
        self.records_emitted = 0
        #: (layer, kind) -> count, for cheap run summaries.
        self.counts: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, kernel) -> "Tracer":
        """Install this tracer on ``kernel`` (at most one per kernel)."""
        if kernel.tracer is not None:
            raise RuntimeError("kernel already has a tracer attached")
        self._kernel = kernel
        kernel.tracer = self
        return self

    def detach(self) -> None:
        """Remove this tracer from its kernel; tracing reverts to off."""
        if self._kernel is not None and self._kernel.tracer is self:
            self._kernel.tracer = None
        self._kernel = None

    def add_sink(self, sink: TraceSink) -> None:
        self.sinks.append(sink)

    def close(self) -> None:
        """Flush and close all sinks."""
        for sink in self.sinks:
            sink.close()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        layer: str,
        kind: str,
        phase: str = PHASE_INSTANT,
        span: Optional[str] = None,
        flow: Optional[str] = None,
        request: Optional[int] = None,
        **fields,
    ) -> None:
        """The one path every record takes: filter, build, count, fan out."""
        if self._layers is not None and layer not in self._layers:
            return
        record = TraceRecord(
            self._kernel.now if self._kernel is not None else 0.0,
            layer, kind, phase, span, flow, request, fields or None,
        )
        self.records_emitted += 1
        key = (layer, kind)
        self.counts[key] = self.counts.get(key, 0) + 1
        for sink in self.sinks:
            sink.emit(record)

    #: An instant is ``emit`` at its default phase.  The same function,
    #: not a wrapper: nine records in ten are instants, and a wrapper
    #: would pack and unpack every call site's keywords a second time.
    instant = emit

    def begin(self, layer: str, kind: str, span: str,
              flow: Optional[str] = None, request: Optional[int] = None,
              **fields) -> None:
        self.emit(layer, kind, PHASE_BEGIN, span, flow, request, **fields)

    def end(self, layer: str, kind: str, span: str,
            flow: Optional[str] = None, request: Optional[int] = None,
            **fields) -> None:
        self.emit(layer, kind, PHASE_END, span, flow, request, **fields)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def records(self) -> List[TraceRecord]:
        """Records held by the first ring-buffer sink (test helper)."""
        for sink in self.sinks:
            if isinstance(sink, RingBufferSink):
                return sink.records
        return []

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tracer emitted={self.records_emitted} sinks={len(self.sinks)}>"
