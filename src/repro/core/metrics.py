"""Measurement: the statistics the paper's evaluation reports.

Figures 4-6 plot per-message latency over time; Table 1 reports
"% Frames Delivered", "Average Latency" and "Standard Deviation"
under load; Table 2 reports per-algorithm average processing time and
standard deviation.  These recorders produce exactly those outputs.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.obs.breakdown import SeriesStats


class TimeSeries:
    """(time, value) samples with windowing and binning helpers."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def window(self, start: float, end: float) -> List[float]:
        """Values with start <= time < end."""
        return [
            value
            for time, value in zip(self.times, self.values)
            if start <= time < end
        ]

    def stats(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> SeriesStats:
        if start is None and end is None:
            return SeriesStats(self.values)
        lo = start if start is not None else float("-inf")
        hi = end if end is not None else float("inf")
        return SeriesStats(self.window(lo, hi))

    def binned(
        self, bin_width: float, reducer: str = "mean"
    ) -> List[Tuple[float, float]]:
        """Aggregate into (bin_start, reduced value) pairs.

        ``reducer``: "mean" or "count".
        """
        if bin_width <= 0:
            raise ValueError(f"bin width must be positive, got {bin_width}")
        bins: dict = {}
        for time, value in zip(self.times, self.values):
            key = math.floor(time / bin_width)
            bins.setdefault(key, []).append(value)
        result = []
        for key in sorted(bins):
            values = bins[key]
            if reducer == "mean":
                reduced = sum(values) / len(values)
            elif reducer == "count":
                reduced = float(len(values))
            else:
                raise ValueError(f"unknown reducer {reducer!r}")
            result.append((key * bin_width, reduced))
        return result


class LatencyRecorder:
    """Per-event latency series (Figs 4-6; Table 1 latency columns)."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.series = TimeSeries(name)

    def record(self, now: float, latency: float) -> None:
        self.series.record(now, latency)

    def stats(self, start: Optional[float] = None,
              end: Optional[float] = None) -> SeriesStats:
        return self.series.stats(start, end)

    @property
    def count(self) -> int:
        return len(self.series)


class DeliveryRecorder:
    """Sent/received accounting over time (Fig 7; Table 1 delivery %).

    Records each send and each delivery with its timestamp, then
    reports delivery fractions over any window — e.g. the paper's
    "under load" interval.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.sent = TimeSeries(f"{name}.sent")
        self.received = TimeSeries(f"{name}.received")
        self.latency = LatencyRecorder(f"{name}.latency")

    def record_sent(self, now: float, size: float = 1.0) -> None:
        self.sent.record(now, size)

    def record_received(
        self, now: float, sent_at: float, size: float = 1.0
    ) -> None:
        self.received.record(now, size)
        self.latency.record(now, now - sent_at)

    # ------------------------------------------------------------------
    def sent_count(self, start: float = None, end: float = None) -> int:
        return len(self._window(self.sent, start, end))

    def received_count(self, start: float = None, end: float = None) -> int:
        return len(self._window(self.received, start, end))

    def delivery_fraction(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> float:
        """Delivered/sent within a time window (keyed on send times).

        Received events are windowed by *receive* time, matching how
        the paper counts "frames delivered" while "under load"; with
        sub-second latencies the skew is negligible.
        """
        sent = self.sent_count(start, end)
        if sent == 0:
            return 1.0
        return min(1.0, self.received_count(start, end) / sent)

    @staticmethod
    def _window(series: TimeSeries, start, end) -> List[float]:
        lo = start if start is not None else float("-inf")
        hi = end if end is not None else float("inf")
        return series.window(lo, hi)

    def interarrival_jitter(
        self, start: Optional[float] = None, end: Optional[float] = None
    ) -> SeriesStats:
        """Statistics of consecutive receive-time gaps.

        The paper calls smoothness out as its own QoS dimension
        ("controlling the jitter requires control all along the
        end-to-end path"); for a nominally periodic stream, the std of
        this series *is* the delivery jitter.
        """
        lo = start if start is not None else float("-inf")
        hi = end if end is not None else float("inf")
        times = [t for t in self.received.times if lo <= t < hi]
        gaps = [b - a for a, b in zip(times, times[1:])]
        return SeriesStats(gaps)

    def cumulative_counts(
        self, bin_width: float, horizon: float
    ) -> List[Tuple[float, int, int]]:
        """(time, cumulative sent, cumulative received) rows — the Fig 7
        'number of frames sent / received' curves."""
        rows = []
        sent_total = 0
        received_total = 0
        sent_bins = dict(self.sent.binned(bin_width, "count"))
        received_bins = dict(self.received.binned(bin_width, "count"))
        steps = int(math.ceil(horizon / bin_width))
        for step in range(steps + 1):
            time = step * bin_width
            sent_total += int(sent_bins.get(time, 0))
            received_total += int(received_bins.get(time, 0))
            rows.append((time, sent_total, received_total))
        return rows
