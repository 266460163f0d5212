"""Tracing must observe, never perturb.

Two families of invariants:

1. **Determinism** — running a seeded scenario with tracing ON yields
   bit-identical metrics to running it with tracing OFF, for several
   seeds.  The tracer may allocate and buffer, but must not schedule
   events, consume random numbers, or mutate component state.

2. **Well-formedness** — the emitted trace is structurally sound:
   every span end has a matching earlier begin at the same span id,
   spans begin at most once, child ORB spans nest inside their request
   span, and per-packet hop records match the topology's path length.
"""

import pytest

from repro.obs import LatencyBreakdown, RingBufferSink, Tracer
from repro.experiments.priority_exp import (
    PriorityArm,
    run_priority_experiment,
)
from repro.experiments.scenarios import run_quickstart, run_uav_pipeline

TOLERANCE = 1e-9


def _fingerprint(result):
    """Exact bitwise content of every latency series in a result."""
    return tuple(
        (name, tuple(rec.series.times), tuple(rec.series.values))
        for name, rec in sorted(result.latency.items())
    )


# ----------------------------------------------------------------------
# 1. Determinism: tracing ON == tracing OFF
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tracing_on_off_bit_identical_metrics(seed):
    arm = PriorityArm.figure4b()  # congested: retransmits, drops, churn
    off = run_priority_experiment(arm, duration=3.0, seed=seed)
    on = run_priority_experiment(
        arm, duration=3.0, seed=seed,
        tracer=Tracer(sinks=[RingBufferSink(capacity=4096)]))
    assert _fingerprint(off) == _fingerprint(on)


def test_tracing_does_not_perturb_quickstart():
    off = run_quickstart()
    on = run_quickstart(tracer=Tracer())
    assert off["calls"] == on["calls"]
    assert off["now"] == on["now"]
    assert off["events"] == on["events"]


# ----------------------------------------------------------------------
# 2. Well-formedness
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quickstart_trace():
    sink = RingBufferSink(capacity=None)
    tracer = Tracer(sinks=[sink])
    run_quickstart(tracer=tracer)
    return sink.records


def test_spans_pair_and_nest_in_time(quickstart_trace):
    begun = {}
    for record in quickstart_trace:
        if record.phase == "B":
            # A span id begins at most once.
            assert record.span not in begun, record.span
            begun[record.span] = record
        elif record.phase == "E":
            opener = begun.get(record.span)
            assert opener is not None, f"end without begin: {record.span}"
            assert record.time >= opener.time
            assert record.layer == opener.layer


def test_child_orb_spans_nest_inside_request_span(quickstart_trace):
    by_span = {}
    for record in quickstart_trace:
        if record.span is not None:
            by_span.setdefault(record.span, {})[record.phase] = record.time
    requests = {span: times for span, times in by_span.items()
                if span.startswith("req:")}
    assert requests  # quickstart makes three two-way calls
    for span, times in requests.items():
        rid = span.split(":")[1]
        assert "B" in times and "E" in times
        for child_prefix in ("xfer:", "serve:", "servant:", "rxfer:"):
            child = by_span.get(f"{child_prefix}{rid}")
            assert child is not None, f"missing {child_prefix}{rid}"
            for phase_time in child.values():
                assert times["B"] <= phase_time <= times["E"]


def test_hop_counts_match_topology_path_length(quickstart_trace):
    """Quickstart is host-router-host: every packet that reaches its
    destination crosses exactly two links, so it is received exactly
    twice (once by the router, once by the end host)."""
    rx_by_packet = {}
    max_hops = {}
    for record in quickstart_trace:
        if record.layer == "net" and record.kind == "hop.rx":
            packet = record.fields["packet"]
            rx_by_packet[packet] = rx_by_packet.get(packet, 0) + 1
            max_hops[packet] = max(max_hops.get(packet, 0),
                                   record.fields["hops"])
    assert rx_by_packet  # traffic flowed
    assert set(rx_by_packet.values()) == {2}
    assert set(max_hops.values()) == {2}
    # The router forwarded each of those packets exactly once.
    forwards = [r for r in quickstart_trace
                if r.layer == "net" and r.kind == "route.forward"]
    assert len(forwards) == len(rx_by_packet)


def test_every_delivered_frame_has_closed_span():
    """UAV run: the breakdown's per-flow frame latencies must agree
    with the endpoint recorders bit-for-bit (within float round-trip
    error, far below the 1e-9 bound)."""
    breakdown = LatencyBreakdown()
    result = run_uav_pipeline(
        duration=8.0, seed=42, tracer=Tracer(sinks=[breakdown]),
        burst_start=3.0, burst_stop=6.0)
    frame_stats = breakdown.frame_stats()
    for flow, receiver in (("avflow:uav1-out", "receiver1"),
                           ("avflow:uav2-out", "receiver2")):
        endpoint = result["receivers"][receiver]["latency"]
        assert endpoint.count > 0
        traced = frame_stats[flow]
        assert traced.count == endpoint.count
        assert traced.mean == pytest.approx(endpoint.mean, abs=TOLERANCE)
