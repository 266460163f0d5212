"""Latency-breakdown attribution tests.

The load-bearing property (ISSUE acceptance criterion): for a
fig4-style control run, the per-stage attribution derived from the
trace must sum to the end-to-end latency the endpoint metrics recorder
reports, within 1e-9 simulated seconds.
"""

import pytest

from repro.obs import LatencyBreakdown, Tracer
from repro.obs.trace import TraceRecord
from repro.experiments.priority_exp import (
    PriorityArm,
    run_priority_experiment,
)

TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# Unit: synthetic records
# ----------------------------------------------------------------------
def from_records(records):
    breakdown = LatencyBreakdown()
    for record in records:
        breakdown.emit(record)
    return breakdown


def _rec(t, layer, kind, ph, span=None, flow=None, request=None, **fields):
    return TraceRecord(t, layer, kind, ph, span, flow, request,
                       fields or None)


def test_request_row_from_synthetic_trace():
    records = [
        _rec(0.0, "orb", "request", "B", span="req:1", request=1,
             operation="push", key="video1/sink", priority=30000,
             dscp="EF", oneway=True),
        _rec(0.0, "orb", "marshal", "B", span="marshal:1", request=1),
        _rec(0.001, "orb", "marshal", "E", span="marshal:1", request=1),
        _rec(0.001, "orb", "transfer", "B", span="xfer:1", request=1),
        _rec(0.004, "orb", "transfer", "E", span="xfer:1", request=1),
        _rec(0.0045, "orb", "serve", "B", span="serve:1", request=1),
        _rec(0.005, "orb", "servant", "B", span="servant:1", request=1),
        _rec(0.006, "orb", "servant", "E", span="servant:1", request=1),
    ]
    breakdown = from_records(records)
    (row,) = breakdown.request_rows()
    assert row["object_key"] == "video1/sink"
    assert row["priority"] == 30000
    assert row["oneway"] is True
    stages = row["stages"]
    assert stages["marshal"] == pytest.approx(0.001)
    assert stages["transfer"] == pytest.approx(0.003)
    assert stages["queue"] == pytest.approx(0.0005)
    assert stages["demarshal"] == pytest.approx(0.0005)
    assert stages["compute"] == pytest.approx(0.001)
    assert row["to_servant"] == pytest.approx(0.005)


def test_undispatched_request_excluded():
    records = [
        _rec(0.0, "orb", "request", "B", span="req:2", request=2,
             key="k", operation="op"),
        _rec(0.0, "orb", "transfer", "B", span="xfer:2", request=2),
    ]
    assert from_records(records).request_rows() == []


def test_frame_durations_per_flow():
    records = [
        _rec(1.0, "av", "frame", "B", span="frame:f:1", flow="f"),
        _rec(1.25, "av", "frame", "E", span="frame:f:1", flow="f"),
        _rec(2.0, "av", "frame", "B", span="frame:f:2", flow="f"),
        # frame 2 never completes (lost fragment)
    ]
    breakdown = from_records(records)
    (flow,) = breakdown.frame_stats().items()
    assert flow[0] == "f" and flow[1].count == 1
    assert flow[1].mean == pytest.approx(0.25)


def test_render_smoke():
    assert "no request or frame spans" in LatencyBreakdown().render()


# ----------------------------------------------------------------------
# Integration: fig4-style control run (the acceptance criterion)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig4a_traced():
    breakdown = LatencyBreakdown()
    tracer = Tracer(sinks=[breakdown], layers=["orb"])
    result = run_priority_experiment(
        PriorityArm.figure4a(), duration=5.0, seed=1, tracer=tracer)
    return breakdown, result


def test_fig4_stage_sums_telescope_to_endpoint_latency(fig4a_traced):
    """marshal + transfer + queue + demarshal telescope to the
    invoke-to-servant time — which is exactly the per-frame latency
    the receiver servant records."""
    breakdown, _ = fig4a_traced
    rows = breakdown.request_rows()
    assert len(rows) > 100  # two 30 fps senders for 5 s
    for row in rows:
        stages = row["stages"]
        total = (stages["marshal"] + stages["transfer"]
                 + stages["queue"] + stages["demarshal"])
        assert total == pytest.approx(row["to_servant"], abs=TOLERANCE)


def test_fig4_breakdown_mean_matches_endpoint_recorder(fig4a_traced):
    breakdown, result = fig4a_traced
    stage_stats = breakdown.stage_stats()
    for sender, key in (("sender1", "video1/sink"),
                        ("sender2", "video2/sink")):
        endpoint = result.stats(sender)
        traced = stage_stats[key]["to_servant"]
        assert traced.count == endpoint.count
        assert traced.mean == pytest.approx(endpoint.mean, abs=TOLERANCE)


def test_fig4_every_request_attributed(fig4a_traced):
    breakdown, result = fig4a_traced
    rows = breakdown.request_rows()
    recorded = sum(rec.count for rec in result.latency.values())
    assert len(rows) == recorded
