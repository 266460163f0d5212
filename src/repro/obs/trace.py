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

*One dict per record.*  A site passes its extra fields as one dict
display, in the order the JSONL shows them, and names only ``span``,
``flow`` and ``request`` as keywords::

    tracer.instant("net", "hop.rx", flow=packet.flow_id,
                   fields={"packet": packet.packet_id, "iface": label})

That dict becomes the record's ``fields`` as it is.  A field named as a
keyword of its own matches no parameter, so CPython would search the
parameter names twice for it and then pack it into a fresh dict, on
every record; :meth:`Tracer.emit` keeps that keyword form for
hand-written records outside the stack, and no site uses it.

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
    """Routes :class:`TraceRecord` objects to sinks through one table.

    The table maps ``(layer, kind)`` to ``[records emitted, handlers]``.
    An entry is built on first sight of its pair and its handlers are
    rebuilt whenever a sink is added or removed (the count survives).
    Handlers run in sink order:

    * a plain sink contributes its ``emit`` for every pair whose layer
      the allow-list admits;
    * a sink with a ``route(layer, kind)`` method (an installed
      :class:`~repro.check.invariants.CheckSuite`) contributes whatever
      that returns, whatever the allow-list says.

    A record is built only when its pair has a handler, and an exception
    raised by a handler stops the ones after it.

    Parameters
    ----------
    sinks:
        Sink objects; defaults to a single bounded
        :class:`~repro.obs.sinks.RingBufferSink`.  Change the list with
        :meth:`add_sink` / :meth:`remove_sink` so the table follows.
    layers:
        Optional allow-list of layer names for the plain sinks: a
        record from another layer reaches only the sinks that route for
        themselves, and is left out of :attr:`records_emitted` and
        :attr:`counts`.
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
        #: (layer, kind) -> [records emitted, handlers]: the one table.
        self._table: Dict[Tuple[str, str], list] = {}

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
        self._rebuild()

    def remove_sink(self, sink: TraceSink) -> None:
        self.sinks.remove(sink)
        self._rebuild()

    def close(self) -> None:
        """Flush and close all sinks."""
        for sink in self.sinks:
            sink.close()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def record(
        self,
        layer: str,
        kind: str,
        phase: str = PHASE_INSTANT,
        span: Optional[str] = None,
        flow: Optional[str] = None,
        request: Optional[int] = None,
        fields: Optional[dict] = None,
    ) -> None:
        """The one path every record takes: look up, count, build, hand over.

        ``fields`` is the site's one dict of extra data, in the order the
        JSONL shows it, or ``None``; it becomes the record's ``fields``
        as it is, so no keyword is bound or packed on the way in.
        """
        try:
            entry = self._table[layer, kind]
        except KeyError:
            entry = self._entry(layer, kind)
        entry[0] += 1
        handlers = entry[1]
        if handlers:
            record = TraceRecord(
                self._kernel.now if self._kernel is not None else 0.0,
                layer, kind, phase, span, flow, request, fields,
            )
            for handler in handlers:
                handler(record)

    #: An instant is ``record`` at its default phase.  The same function,
    #: not a wrapper: nine records in ten are instants.
    instant = record

    def begin(self, layer: str, kind: str, span: str,
              flow: Optional[str] = None, request: Optional[int] = None,
              fields: Optional[dict] = None) -> None:
        self.record(layer, kind, PHASE_BEGIN, span, flow, request, fields)

    def end(self, layer: str, kind: str, span: str,
            flow: Optional[str] = None, request: Optional[int] = None,
            fields: Optional[dict] = None) -> None:
        self.record(layer, kind, PHASE_END, span, flow, request, fields)

    def emit(self, layer: str, kind: str, phase: str = PHASE_INSTANT,
             span: Optional[str] = None, flow: Optional[str] = None,
             request: Optional[int] = None, **fields) -> None:
        """:meth:`record` with the fields named as keywords.

        For hand-written records outside the stack (``perf/micro.py``'s
        ``obs.emits_per_s`` emits this way); no trace site calls it.
        """
        self.record(layer, kind, phase, span, flow, request, fields or None)

    def dispatch(self, record: TraceRecord) -> None:
        """Hand an already built record through the table (replay)."""
        try:
            entry = self._table[record.layer, record.kind]
        except KeyError:
            entry = self._entry(record.layer, record.kind)
        entry[0] += 1
        for handler in entry[1]:
            handler(record)

    # ------------------------------------------------------------------
    # The table
    # ------------------------------------------------------------------
    def _handlers(self, layer: str, kind: str) -> tuple:
        admitted = self._layers is None or layer in self._layers
        handlers = []
        for sink in self.sinks:
            route = getattr(sink, "route", None)
            if route is not None:
                handlers.extend(route(layer, kind))
            elif admitted:
                handlers.append(sink.emit)
        return tuple(handlers)

    def _entry(self, layer: str, kind: str) -> list:
        self._table[layer, kind] = entry = [0, self._handlers(layer, kind)]
        return entry

    def _rebuild(self) -> None:
        # In place: a caller holding a row (``row``) sees the new handlers.
        for (layer, kind), entry in self._table.items():
            entry[1] = self._handlers(layer, kind)

    def row(self, layer: str, kind: str) -> list:
        """The live ``[records emitted, handlers]`` row of ``(layer, kind)``.

        For a site that emits one pair at a high rate (the kernel's
        dispatch loop): it reads the row once, builds a record through
        :meth:`record` only while ``row[1]`` is non-empty, and otherwise
        bumps ``row[0]`` itself, so the counts stay exact.  Sinks added
        or removed later rewrite the same row.
        """
        try:
            return self._table[layer, kind]
        except KeyError:
            return self._entry(layer, kind)

    def tally(self) -> Dict[Tuple[str, str], int]:
        """(layer, kind) -> records emitted, from every layer."""
        return {key: entry[0] for key, entry in self._table.items()}

    @property
    def counts(self) -> Dict[Tuple[str, str], int]:
        """(layer, kind) -> records emitted from the admitted layers."""
        layers = self._layers
        return {key: entry[0] for key, entry in self._table.items()
                if layers is None or key[0] in layers}

    @property
    def records_emitted(self) -> int:
        """Records emitted from the admitted layers."""
        return sum(self.counts.values())

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tracer emitted={self.records_emitted} sinks={len(self.sinks)}>"
