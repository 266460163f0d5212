"""Tests for the measurement layer."""

import pytest
from hypothesis import given, strategies as st

from repro.core import DeliveryRecorder, LatencyRecorder, TimeSeries
from repro.obs import SeriesStats


def test_series_stats_basic():
    stats = SeriesStats([1.0, 2.0, 3.0, 4.0])
    assert stats.count == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.std == pytest.approx(1.118, abs=1e-3)
    assert stats.minimum == 1.0
    assert stats.maximum == 4.0
    assert stats.p50 == pytest.approx(2.5)


def test_series_stats_empty():
    stats = SeriesStats([])
    assert stats.count == 0
    assert stats.mean == 0.0
    assert stats.std == 0.0
    assert stats.p50 == 0.0
    assert stats.p90 == 0.0
    assert stats.p95 == 0.0
    assert stats.p99 == 0.0


def test_series_stats_single_value():
    stats = SeriesStats([7.0])
    assert stats.mean == 7.0
    assert stats.std == 0.0
    assert stats.p50 == 7.0
    assert stats.p90 == 7.0
    assert stats.p95 == 7.0
    assert stats.p99 == 7.0


def test_series_stats_two_values_interpolate():
    stats = SeriesStats([1.0, 3.0])
    assert stats.p50 == pytest.approx(2.0)
    assert stats.p90 == pytest.approx(1.0 + 0.9 * 2.0)
    assert stats.p95 == pytest.approx(1.0 + 0.95 * 2.0)
    assert stats.p99 == pytest.approx(1.0 + 0.99 * 2.0)


def test_series_stats_upper_percentiles_on_known_series():
    # 0..100 inclusive: pNN lands exactly on value NN.
    stats = SeriesStats([float(v) for v in range(101)])
    assert stats.p50 == pytest.approx(50.0)
    assert stats.p90 == pytest.approx(90.0)
    assert stats.p95 == pytest.approx(95.0)
    assert stats.p99 == pytest.approx(99.0)


def test_series_stats_percentiles_order_independent():
    forward = SeriesStats([1.0, 5.0, 2.0, 9.0, 7.0])
    backward = SeriesStats([7.0, 9.0, 2.0, 5.0, 1.0])
    for name in ("p50", "p90", "p95", "p99"):
        assert getattr(forward, name) == getattr(backward, name)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=100))
def test_prop_percentiles_monotone_and_bounded(values):
    stats = SeriesStats(values)
    ulp = 1e-9 * max(1.0, abs(stats.maximum), abs(stats.minimum))
    assert stats.minimum - ulp <= stats.p50
    assert stats.p50 <= stats.p90 + ulp
    assert stats.p90 <= stats.p95 + ulp
    assert stats.p95 <= stats.p99 + ulp
    assert stats.p99 <= stats.maximum + ulp


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=100))
def test_prop_stats_bounds(values):
    stats = SeriesStats(values)
    ulp = 1e-9 * max(1.0, abs(stats.maximum), abs(stats.minimum))
    assert stats.minimum - ulp <= stats.mean <= stats.maximum + ulp
    assert stats.std >= 0
    assert stats.minimum - ulp <= stats.p50 <= stats.maximum + ulp


def test_timeseries_window():
    series = TimeSeries()
    for t in range(10):
        series.record(float(t), t * 10.0)
    assert series.window(2.0, 5.0) == [20.0, 30.0, 40.0]
    assert series.stats(2.0, 5.0).mean == pytest.approx(30.0)


def test_timeseries_binned_reducers():
    series = TimeSeries()
    series.record(0.1, 1.0)
    series.record(0.2, 3.0)
    series.record(1.5, 10.0)
    assert series.binned(1.0, "mean") == [(0.0, 2.0), (1.0, 10.0)]
    assert series.binned(1.0, "count") == [(0.0, 2.0), (1.0, 1.0)]
    with pytest.raises(ValueError):
        series.binned(1.0, "max")
    with pytest.raises(ValueError):
        series.binned(0.0)


def test_latency_recorder_windowed_stats():
    recorder = LatencyRecorder("lat")
    for t in range(10):
        latency = 0.001 if t < 5 else 0.5
        recorder.record(float(t), latency)
    assert recorder.stats(end=5.0).mean == pytest.approx(0.001)
    assert recorder.stats(start=5.0).mean == pytest.approx(0.5)
    assert recorder.count == 10


def test_delivery_recorder_fractions():
    recorder = DeliveryRecorder("frames")
    # 10 sent; 6 received (4 lost), all within [0, 10).
    for i in range(10):
        recorder.record_sent(float(i))
        if i % 5 != 0 and i % 4 != 0:
            recorder.record_received(float(i) + 0.01, sent_at=float(i))
    assert recorder.sent_count() == 10
    assert recorder.received_count() == 6
    assert recorder.delivery_fraction() == pytest.approx(0.6)


def test_delivery_recorder_windowed_fraction():
    recorder = DeliveryRecorder("frames")
    # Perfect delivery before t=5, total loss after.
    for i in range(10):
        recorder.record_sent(float(i))
        if i < 5:
            recorder.record_received(float(i) + 0.001, sent_at=float(i))
    assert recorder.delivery_fraction(end=5.0) == pytest.approx(1.0)
    assert recorder.delivery_fraction(start=5.0) == pytest.approx(0.0)


def test_delivery_fraction_with_nothing_sent():
    recorder = DeliveryRecorder("frames")
    assert recorder.delivery_fraction() == 1.0


def test_delivery_latency_tracked():
    recorder = DeliveryRecorder("frames")
    recorder.record_sent(0.0)
    recorder.record_received(0.25, sent_at=0.0)
    assert recorder.latency.stats().mean == pytest.approx(0.25)


def test_interarrival_jitter_perfectly_periodic_is_zero():
    recorder = DeliveryRecorder("frames")
    for i in range(10):
        recorder.record_received(i * 0.1, sent_at=i * 0.1 - 0.01)
    jitter = recorder.interarrival_jitter()
    assert jitter.mean == pytest.approx(0.1)
    assert jitter.std == pytest.approx(0.0, abs=1e-12)


def test_interarrival_jitter_detects_burstiness():
    recorder = DeliveryRecorder("frames")
    times = [0.0, 0.1, 0.2, 0.9, 1.0, 1.1]  # one long gap
    for t in times:
        recorder.record_received(t, sent_at=t)
    assert recorder.interarrival_jitter().std > 0.2


def test_interarrival_jitter_windowed():
    recorder = DeliveryRecorder("frames")
    for i in range(10):
        recorder.record_received(i * 0.1, sent_at=i * 0.1)
    for i in range(5):
        recorder.record_received(2.0 + i * 0.5, sent_at=2.0 + i * 0.5)
    early = recorder.interarrival_jitter(end=1.5)
    late = recorder.interarrival_jitter(start=1.5)
    assert early.mean == pytest.approx(0.1)
    assert late.mean == pytest.approx(0.5)


def test_cumulative_counts_shape():
    recorder = DeliveryRecorder("frames")
    for i in range(30):
        recorder.record_sent(i * 0.1)
        if i < 15:
            recorder.record_received(i * 0.1 + 0.01, sent_at=i * 0.1)
    rows = recorder.cumulative_counts(bin_width=1.0, horizon=3.0)
    assert rows[-1][1] == 30  # all sends counted by the horizon
    assert rows[-1][2] == 15
    # Cumulative counts are monotone.
    for (t0, s0, r0), (t1, s1, r1) in zip(rows, rows[1:]):
        assert s1 >= s0 and r1 >= r0
