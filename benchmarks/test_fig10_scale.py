"""Figure 10: hybrid fluid/packet admission sweep at 10^2..10^5 streams.

Fig 9 stops at N=64 because per-packet simulation prices every
background datagram at several kernel events.  Fig 10 carries the same
admission-control question to "millions of users" scale with the
hybrid model: a small measured cohort stays packet-simulated while the
stream bulk and cross traffic become fluid aggregates whose byte
ledgers integrate analytically between rate-change epochs.  Headline
shape: per-tenant reserve pools hold every admitted stream at
contracted rate through five orders of magnitude of offered load,
best effort collapses past the knee, the adaptive governor sheds the
rejected class toward what fits, and a single flooding tenant cannot
displace anyone else's admissions.
"""

from repro.scale.capacity_exp import (
    RESERVE_BPS,
    UTILIZATION_BOUND,
    VIDEO_FPS,
)
from repro.scale.fig10 import SCALE_BOTTLENECK_BPS, SCALE_TENANTS

from _shared import regenerate

#: Per-tenant reserve pool at the fig 10 defaults...
TENANT_POOL_BPS = SCALE_BOTTLENECK_BPS * UTILIZATION_BOUND / SCALE_TENANTS
#: ...and the admissions that fit in it / in the whole bottleneck.
PER_TENANT_CAP = int(TENANT_POOL_BPS / RESERVE_BPS)
SATURATION_ADMITTED = PER_TENANT_CAP * SCALE_TENANTS


def test_fig10_scale(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("fig10_scale",), rounds=1, iterations=1)
    points = {(result.payload.arm.name, result.payload.streams):
              result.payload for result in results}
    arms = {arm for arm, _ in points}

    def at(arm, streams):
        return points[arm, streams]

    counts = sorted(n for arm, n in points if arm == "reserves")
    assert counts == [100, 1000, 10_000, 100_000]

    # The capacity claim at scale: admission holds the admitted class
    # at contracted rate through five orders of magnitude of load.
    for arm in ("reserves", "adaptive", "overload"):
        for n in counts:
            point = at(arm, n)
            stats = point.admitted_stats
            assert stats.mean_fps >= 0.9 * VIDEO_FPS
            assert stats.miss_rate < 0.1
            # The books never overflow the bottleneck or any pool.
            assert (point.bottleneck_committed_bps
                    <= SCALE_BOTTLENECK_BPS * UTILIZATION_BOUND + 1e-3)
            for committed, pool in point.tenant_books.values():
                assert committed <= pool + 1e-3

    # Saturation: past the knee the admitted count pins to the pools.
    assert at("reserves", 100).admitted_count == 100
    assert at("reserves", 100_000).admitted_count == SATURATION_ADMITTED

    # Without admission, best effort collapses at the top of the sweep.
    flooded = at("best-effort", 100_000).best_effort_stats
    assert flooded.mean_fps < 0.1 * VIDEO_FPS
    assert flooded.loss_rate > 0.9
    # ...but the uncontended bottom of the sweep is healthy.
    assert (at("best-effort", 100).best_effort_stats.mean_fps
            > 0.9 * VIDEO_FPS)

    # Adaptation sheds the rejected class instead of blasting it into
    # the full bottleneck: less offered, so a smaller lost fraction.
    adaptive = at("adaptive", 100_000)
    assert adaptive.governor_transitions > 0
    assert (adaptive.best_effort_stats.loss_rate
            <= at("reserves", 100_000).best_effort_stats.loss_rate + 1e-9)

    # Tenant isolation: the flooding tenant exhausts exactly its own
    # pool while the others' demand is admitted in full.
    storm = at("overload", 1000)
    t0_committed, t0_pool = storm.tenant_books["t0"]
    assert t0_committed >= t0_pool - RESERVE_BPS  # pool exhausted
    victims = sum(committed for tenant, (committed, _pool)
                  in storm.tenant_books.items() if tenant != "t0")
    # 500 non-storm requests spread over 3 tenants, all below cap.
    assert victims == (storm.streams - storm.streams // 2) * RESERVE_BPS

    # The perf claim that makes fig 10 possible: hybrid event counts
    # grow sub-linearly (epochs + measured cohort, not packets), so
    # 1000x the offered load costs nowhere near 1000x the events.
    for arm in arms:
        base = at(arm, 100).events_executed
        top = at(arm, 100_000).events_executed
        assert top < 10 * base
        assert at(arm, 100_000).fluid_epochs >= 1

    # Wall-clock acceptance: the whole 16-point figure (including every
    # N=10^5 arm) fits the budget when measured fresh.
    if not any(result.cached for result in results):
        assert sum(result.wall_seconds for result in results) < 60.0
