"""Shape tests for the section 5.1 (Figs 4-6) experiment harness.

Short-duration runs that assert the paper's qualitative findings, not
absolute numbers.
"""

import pytest

from repro.experiments.priority_exp import (
    PriorityArm,
    run_priority_experiment,
)

#: The five arms of figures 4-6.
ARMS = (PriorityArm.figure4a(), PriorityArm.figure4b(),
        PriorityArm.figure5a(), PriorityArm.figure5b(),
        PriorityArm.figure6())

DURATION = 10.0


@pytest.fixture(scope="module")
def results():
    return {
        arm.name: run_priority_experiment(arm, duration=DURATION)
        for arm in ARMS
    }


def test_all_arms_enumerated():
    names = [arm.name for arm in ARMS]
    assert len(names) == 5
    assert len(set(names)) == 5


def test_fig4a_idle_latency_low_and_flat(results):
    result = results["fig4a-control-idle"]
    for sender in ("sender1", "sender2"):
        stats = result.stats(sender)
        assert stats.count > 200  # stream flowed at ~30 fps
        assert stats.mean < 0.02  # milliseconds, not seconds
        assert stats.std < 0.01


def test_fig4a_senders_symmetric(results):
    result = results["fig4a-control-idle"]
    s1, s2 = result.stats("sender1"), result.stats("sender2")
    assert s1.mean == pytest.approx(s2.mean, rel=0.25)


def test_fig4b_congestion_destroys_predictability(results):
    idle = results["fig4a-control-idle"]
    congested = results["fig4b-control-congested"]
    for sender in ("sender1", "sender2"):
        assert congested.stats(sender).mean > 10 * idle.stats(sender).mean
        assert congested.stats(sender).maximum > 0.5  # spikes past 500 ms
        assert congested.stats(sender).std > idle.stats(sender).std * 10


def test_fig5a_thread_priority_protects_high_sender(results):
    result = results["fig5a-threads-cpuload"]
    high = result.stats("sender1")
    low = result.stats("sender2")
    # "the higher priority task exhibits significantly lower latency
    # than the lower priority task"
    assert high.mean * 3 < low.mean
    assert high.maximum < low.maximum


def test_fig5b_thread_priority_cannot_fix_the_network(results):
    result = results["fig5b-threads-cpuload-congested"]
    high = result.stats("sender1")
    # Even the high-priority sender is at the network's mercy.
    assert high.mean > 0.05
    assert high.maximum > 0.3


def test_fig6_combined_management_restores_both(results):
    fig5b = results["fig5b-threads-cpuload-congested"]
    fig6 = results["fig6-threads-dscp-congested"]
    # DSCP + threads under full load: sender1 back to ~idle latency.
    assert fig6.stats("sender1").mean < 0.02
    assert fig6.stats("sender1").mean < fig5b.stats("sender1").mean / 5
    # Sender 1 (EF) beats sender 2 (AF) — "Sender 1's stream exhibits
    # better performance (lower latency) than Sender 2".
    assert fig6.stats("sender1").mean < fig6.stats("sender2").mean
    # And both are delivered predictably despite congestion.
    assert fig6.stats("sender2").count > 100


def test_congested_arms_deliver_fewer_frames(results):
    idle = results["fig4a-control-idle"]
    congested = results["fig4b-control-congested"]
    assert (congested.stats("sender1").count
            < idle.stats("sender1").count / 2)


def test_series_binning_produces_figure_data(results):
    result = results["fig4a-control-idle"]
    series = result.series("sender1", bin_width=1.0)
    assert len(series) >= int(DURATION) - 1
    times = [t for t, _ in series]
    assert times == sorted(times)
