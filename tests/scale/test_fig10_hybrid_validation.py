"""Fig 10 hybrid-model validation: fluid vs pure packet at N <= 64.

The hybrid model's claim is that replacing aggregate traffic with
fluid flows preserves the *class-level* QoS metrics the figure reports.
This suite runs every fig 10 arm both ways at N=32 — small enough that
the pure per-packet simulation is tractable ground truth — and asserts
agreement within the error bounds below.

Error-bound methodology: the bounds were set from the worst observed
|hybrid - packet| deltas across all four arms at N=32 *and* N=64
(seed 1, 8 s), then padded ~30-50% so legitimate refactors don't trip
them while a broken coupling (e.g. residual-rate or queue-budget drift,
which shows up as whole-fps / tens-of-percent errors) still fails:

====================  ===============  ==============
metric                worst observed   asserted bound
====================  ===============  ==============
admitted mean fps     0.03             1.5
admitted p95 latency  0.035 s          0.05 s
best-effort mean fps  1.62             2.5
best-effort loss      0.123            0.15
best-effort p95       0.092 s          0.15 s
miss rate (both)      0.055            0.10
====================  ===============  ==============

Runs are shared across test cases via a module cache, so the whole
file costs one packet + one hybrid run per arm.
"""

import pytest

from repro.scale.fig10 import run_scale_experiment, scale_arms

#: Sweep point: a 10 Mbps bottleneck loaded by 32 offered streams puts
#: both classes in their interesting regimes (reserves saturated,
#: best effort congested but not starved).
STREAMS = 32
DURATION = 8.0
BOTTLENECK_BPS = 10e6
CROSS_BPS = 4e6

ADM_FPS_TOL = 1.5
ADM_P95_TOL = 0.05
BE_FPS_TOL = 2.5
BE_LOSS_TOL = 0.15
BE_P95_TOL = 0.15
MISS_TOL = 0.10

_cache = {}


def point(arm_name: str, fluid: bool):
    key = (arm_name, fluid)
    if key not in _cache:
        arm = next(a for a in scale_arms() if a.name == arm_name)
        _cache[key] = run_scale_experiment(
            arm, streams=STREAMS, duration=DURATION, seed=1, fluid=fluid,
            bottleneck_bps=BOTTLENECK_BPS, cross_traffic_bps=CROSS_BPS)
    return _cache[key]


ARMS = [arm.name for arm in scale_arms()]


@pytest.mark.parametrize("arm_name", ARMS)
def test_admission_decisions_identical(arm_name):
    """Admission runs before (and independent of) the traffic model,
    so both modes must admit the exact same set."""
    hybrid, packet = point(arm_name, True), point(arm_name, False)
    assert hybrid.admitted_count == packet.admitted_count
    assert hybrid.requests_rejected == packet.requests_rejected
    assert hybrid.tenant_books == packet.tenant_books
    assert (hybrid.bottleneck_committed_bps
            == packet.bottleneck_committed_bps)


@pytest.mark.parametrize("arm_name", ARMS)
def test_admitted_class_within_bounds(arm_name):
    hybrid, packet = point(arm_name, True), point(arm_name, False)
    h, p = hybrid.admitted_stats, packet.admitted_stats
    assert (h is None) == (p is None)
    if h is None:
        return  # best-effort arm: no admitted class either way
    assert h.count == p.count
    assert abs(h.mean_fps - p.mean_fps) <= ADM_FPS_TOL
    assert abs(h.miss_rate - p.miss_rate) <= MISS_TOL
    if h.p95_latency is not None and p.p95_latency is not None:
        assert abs(h.p95_latency - p.p95_latency) <= ADM_P95_TOL


@pytest.mark.parametrize("arm_name", ARMS)
def test_best_effort_class_within_bounds(arm_name):
    hybrid, packet = point(arm_name, True), point(arm_name, False)
    h, p = hybrid.best_effort_stats, packet.best_effort_stats
    assert h is not None and p is not None
    assert h.count == p.count
    assert abs(h.mean_fps - p.mean_fps) <= BE_FPS_TOL
    assert abs(h.loss_rate - p.loss_rate) <= BE_LOSS_TOL
    assert abs(h.miss_rate - p.miss_rate) <= MISS_TOL
    if h.p95_latency is not None and p.p95_latency is not None:
        assert abs(h.p95_latency - p.p95_latency) <= BE_P95_TOL


@pytest.mark.parametrize("arm_name", ARMS)
def test_hybrid_is_actually_cheaper(arm_name):
    """The point of the exercise: the hybrid run must execute far
    fewer kernel events than the per-packet ground truth even at N=32
    (the gap widens with N; at 10^5 packet simulation is infeasible)."""
    hybrid, packet = point(arm_name, True), point(arm_name, False)
    assert hybrid.events_executed < packet.events_executed / 2
    assert hybrid.fluid_epochs >= 1


def test_hybrid_conserves_fluid_bytes():
    """Spot-check the ledger on one congested arm (the property suite
    covers this exhaustively on synthetic programs)."""
    hybrid = point("reserves", True)
    assert hybrid.fluid_flows
    for flow in hybrid.fluid_flows:
        total = flow.served_bytes + flow.lost_bytes
        assert total == pytest.approx(flow.offered_bytes,
                                      rel=1e-9, abs=1e-6)
