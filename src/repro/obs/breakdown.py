"""Latency-breakdown aggregation over trace records.

Attributes each delivered request's / frame's end-to-end latency to
per-stage components, matching how the paper's evaluation discusses
where time accrues:

ORB requests (GIOP path)
    ``marshal``        client-side marshaling CPU (incl. preemption)
    ``transfer``       transport send -> server ORB receive (queueing,
                       serialization, retransmission)
    ``queue``          thread-pool lane buffering until a worker picks
                       the request up
    ``demarshal``      server-side demarshal CPU
    ``compute``        servant execution (incl. its CPU waits)
    ``reply.marshal``  reply marshaling CPU (two-way only)
    ``reply.transfer`` reply transport time (two-way only)

    The first five stages telescope: their sum equals the time from
    ``invoke()`` to servant entry, which for the video workloads is
    exactly the latency the endpoint recorders report.

A/V frames (datagram path)
    One span per frame from producer send to consumer reassembly; its
    duration is the frame's end-to-end latency (no marshal or compute
    stage exists on this path).

The aggregator is itself a trace sink, fed live by a
:class:`~repro.obs.trace.Tracer` without buffering the whole trace.  Each
stage is summarised as a :class:`SeriesStats`, the one summary type
the recorders in :mod:`repro.core.metrics` and the figures share.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.sinks import TraceSink


class SeriesStats:
    """Summary statistics of one numeric series."""

    def __init__(self, values: Sequence[float]) -> None:
        self.count = len(values)
        if self.count == 0:
            self.mean = 0.0
            self.std = 0.0
            self.minimum = 0.0
            self.maximum = 0.0
            self.p50 = 0.0
            self.p90 = 0.0
            self.p95 = 0.0
            self.p99 = 0.0
            return
        self.mean = sum(values) / self.count
        variance = sum((v - self.mean) ** 2 for v in values) / self.count
        self.std = math.sqrt(variance)
        ordered = sorted(values)
        self.minimum = ordered[0]
        self.maximum = ordered[-1]
        self.p50 = _percentile(ordered, 0.50)
        self.p90 = _percentile(ordered, 0.90)
        self.p95 = _percentile(ordered, 0.95)
        self.p99 = _percentile(ordered, 0.99)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SeriesStats(n={self.count}, mean={self.mean:.6f}, "
            f"std={self.std:.6f})"
        )


def _percentile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        return 0.0
    # Clamp so a caller-supplied quantile outside [0, 1] cannot index
    # past either end of the series.
    q = min(1.0, max(0.0, q))
    index = q * (len(ordered) - 1)
    low = int(math.floor(index))
    high = int(math.ceil(index))
    if low == high:
        return ordered[low]
    fraction = index - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


#: Request stages in pipeline order (sum of the first five == time from
#: invoke to servant entry).
REQUEST_STAGES = (
    "marshal", "transfer", "queue", "demarshal", "compute",
    "reply.marshal", "reply.transfer",
)

#: ORB span kinds the aggregator consumes.
_ORB_KINDS = frozenset(
    {"request", "marshal", "transfer", "serve", "servant",
     "reply.marshal", "reply.transfer"}
)


class _RequestEntry:
    """Times and metadata collected for one GIOP request id."""

    __slots__ = ("request", "operation", "object_key", "priority",
                 "dscp", "oneway", "times")

    def __init__(self, request: int) -> None:
        self.request = request
        self.operation: Optional[str] = None
        self.object_key: Optional[str] = None
        self.priority: Optional[int] = None
        self.dscp: Optional[str] = None
        self.oneway = False
        self.times: Dict[Tuple[str, str], float] = {}


class LatencyBreakdown(TraceSink):
    """Builds per-request stage attributions and per-flow frame latencies."""

    def __init__(self) -> None:
        self._requests: Dict[int, _RequestEntry] = {}
        # AV frames: open spans and completed durations per flow.
        self._open_frames: Dict[str, Tuple[float, Optional[str]]] = {}
        self._frame_durations: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # Sink interface
    # ------------------------------------------------------------------
    def emit(self, record) -> None:
        if record.layer == "orb":
            if record.request is None or record.kind not in _ORB_KINDS:
                return
            entry = self._requests.get(record.request)
            if entry is None:
                entry = self._requests[record.request] = _RequestEntry(
                    record.request
                )
            entry.times[(record.kind, record.phase)] = record.time
            if record.kind == "request" and record.phase == "B":
                fields = record.fields or {}
                entry.operation = fields.get("operation")
                entry.object_key = fields.get("key")
                entry.priority = fields.get("priority")
                entry.dscp = fields.get("dscp")
                entry.oneway = bool(fields.get("oneway"))
        elif record.layer == "av" and record.kind == "frame":
            if record.phase == "B":
                self._open_frames[record.span] = (record.time, record.flow)
            elif record.phase == "E":
                opened = self._open_frames.pop(record.span, None)
                if opened is None:
                    return
                started, flow = opened
                flow = record.flow if record.flow is not None else flow
                self._frame_durations.setdefault(flow, []).append(
                    record.time - started
                )

    # ------------------------------------------------------------------
    # Request attribution
    # ------------------------------------------------------------------
    def request_rows(self) -> List[dict]:
        """One row per request that reached its servant.

        Each row maps stage name -> seconds (absent reply stages on
        oneway requests are omitted), plus ``to_servant`` (invoke to
        servant entry — the endpoint-visible latency for oneway video)
        and ``rtt`` when the reply completed.
        """
        rows = []
        for request in sorted(self._requests):
            entry = self._requests[request]
            times = entry.times
            servant_begin = times.get(("servant", "B"))
            if servant_begin is None:
                continue  # never dispatched: dropped, timed out, in flight
            row = {
                "request": request,
                "operation": entry.operation,
                "object_key": entry.object_key,
                "priority": entry.priority,
                "dscp": entry.dscp,
                "oneway": entry.oneway,
                "stages": {},
            }
            stages = row["stages"]
            begin = times.get(("request", "B"))
            marshal_b = times.get(("marshal", "B"))
            marshal_e = times.get(("marshal", "E"))
            if marshal_b is not None and marshal_e is not None:
                stages["marshal"] = marshal_e - marshal_b
            else:
                stages["marshal"] = 0.0
            transfer_b = times.get(("transfer", "B"))
            transfer_e = times.get(("transfer", "E"))
            serve_b = times.get(("serve", "B"))
            if transfer_b is not None and transfer_e is not None:
                stages["transfer"] = transfer_e - transfer_b
            if transfer_e is not None and serve_b is not None:
                stages["queue"] = serve_b - transfer_e
            if serve_b is not None:
                stages["demarshal"] = servant_begin - serve_b
            servant_end = times.get(("servant", "E"))
            if servant_end is not None:
                stages["compute"] = servant_end - servant_begin
            for kind in ("reply.marshal", "reply.transfer"):
                kind_b, kind_e = times.get((kind, "B")), times.get((kind, "E"))
                if kind_b is not None and kind_e is not None:
                    stages[kind] = kind_e - kind_b
            if begin is not None:
                row["to_servant"] = servant_begin - begin
                request_end = times.get(("request", "E"))
                if request_end is not None and not entry.oneway:
                    row["rtt"] = request_end - begin
            rows.append(row)
        return rows

    def stage_stats(self) -> Dict[str, Dict[str, SeriesStats]]:
        """Per-target stage statistics: object key -> stage -> stats."""
        grouped: Dict[str, Dict[str, List[float]]] = {}
        totals: Dict[str, List[float]] = {}
        for row in self.request_rows():
            key = row["object_key"] or "?"
            bucket = grouped.setdefault(key, {})
            for stage, value in row["stages"].items():
                bucket.setdefault(stage, []).append(value)
            if "to_servant" in row:
                totals.setdefault(key, []).append(row["to_servant"])
        out: Dict[str, Dict[str, SeriesStats]] = {}
        for key, stage_values in grouped.items():
            out[key] = {
                stage: SeriesStats(values)
                for stage, values in stage_values.items()
            }
            if key in totals:
                out[key]["to_servant"] = SeriesStats(totals[key])
        return out

    # ------------------------------------------------------------------
    # Frame attribution
    # ------------------------------------------------------------------
    def frame_stats(self) -> Dict[str, SeriesStats]:
        return {flow: SeriesStats(values)
                for flow, values in self._frame_durations.items()}

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable per-stage summary (milliseconds)."""
        lines: List[str] = []
        stage_stats = self.stage_stats()
        if stage_stats:
            columns = [s for s in REQUEST_STAGES
                       if any(s in stats for stats in stage_stats.values())]
            header = (f"{'target':<24} {'n':>6}"
                      + "".join(f" {name:>14}" for name in columns)
                      + f" {'to-servant':>14}")
            lines.append("per-stage request latency, mean ms")
            lines.append(header)
            lines.append("-" * len(header))
            for key in sorted(stage_stats):
                stats = stage_stats[key]
                count = max((s.count for s in stats.values()), default=0)
                cells = "".join(
                    f" {stats[name].mean * 1e3:>14.4f}" if name in stats
                    else f" {'-':>14}"
                    for name in columns
                )
                total = (f" {stats['to_servant'].mean * 1e3:>14.4f}"
                         if "to_servant" in stats else f" {'-':>14}")
                lines.append(f"{key:<24} {count:>6}{cells}{total}")
        frame_stats = self.frame_stats()
        if frame_stats:
            if lines:
                lines.append("")
            lines.append("per-flow frame latency, ms")
            header = (f"{'flow':<28} {'n':>6} {'mean':>10} {'p95':>10} "
                      f"{'max':>10}")
            lines.append(header)
            lines.append("-" * len(header))
            for flow in sorted(frame_stats):
                stats = frame_stats[flow]
                lines.append(
                    f"{flow:<28} {stats.count:>6} {stats.mean * 1e3:>10.3f} "
                    f"{stats.p95 * 1e3:>10.3f} {stats.maximum * 1e3:>10.3f}"
                )
        if not lines:
            lines.append("no request or frame spans in trace")
        return "\n".join(lines)
