"""Shape tests for the section 5.2 experiments (Fig 7, Tables 1-2)."""

import pytest

from repro.experiments.reservation_net_exp import (
    NetworkArm,
    all_arms as network_arms,
    run_network_reservation_experiment,
)
from repro.experiments.reservation_cpu_exp import (
    RESERVE_COMPUTE,
    RESERVE_PERIOD,
    CpuArm,
    all_arms as cpu_arms,
    run_cpu_reservation_experiment,
)
from repro.oskernel.reserve import EnforcementPolicy

# Short versions of the paper's 300 s / 60-120 s timeline.
NET_KW = dict(duration=60.0, load_start=15.0, load_end=45.0)


@pytest.fixture(scope="module")
def net_results():
    return {
        arm.name: run_network_reservation_experiment(arm, **NET_KW)
        for arm in network_arms()
    }


@pytest.fixture(scope="module")
def cpu_results():
    return {
        arm.name: run_cpu_reservation_experiment(arm, duration=60.0)
        for arm in cpu_arms()
    }


# ----------------------------------------------------------------------
# Network reservations (Fig 7 / Table 1)
# ----------------------------------------------------------------------
def test_six_network_arms():
    names = [arm.name for arm in network_arms()]
    assert len(names) == 6


def test_unknown_reservation_level_rejected():
    with pytest.raises(ValueError):
        NetworkArm("bad", "half", False)


def test_no_adaptation_loses_nearly_everything(net_results):
    fraction = net_results["1-none"].delivered_fraction_under_load()
    assert fraction < 0.10  # paper: 0.83 %


def test_partial_reservation_delivers_roughly_half(net_results):
    fraction = net_results["2-partial"].delivered_fraction_under_load()
    assert 0.25 < fraction < 0.65  # paper: 43.9 %


def test_full_reservation_delivers_everything(net_results):
    fraction = net_results["3-full"].delivered_fraction_under_load()
    assert fraction > 0.99  # paper: all frames


def test_partial_plus_filtering_protects_i_frames(net_results):
    result = net_results["5-partial-filtering"]
    # "the middleware dropped less important intermediate frames, but
    # successfully delivered all full content frames (I-frames)"
    assert result.i_frames_delivered_under_load() > 0.75
    assert result.delivered_fraction_under_load() > 0.80


def test_unreserved_i_frames_die_under_load(net_results):
    assert net_results["1-none"].i_frames_delivered_under_load() < 0.10


def test_typed_counts_under_load_are_per_result_and_survive_pickling(
        net_results):
    """The windowed per-type counts are plain instance data captured
    from the receiver's own series: not shared between results, equal
    to the received count in the window, and still there in a worker's
    pickled payload."""
    import pickle

    partial, full = net_results["5-partial-filtering"], net_results["3-full"]
    assert (partial.typed_received_under_load
            is not full.typed_received_under_load)
    for result in (partial, full):
        window = (result.load_start, result.load_end)
        assert (sum(result.typed_received_under_load.values())
                == result.receiver_delivery.received_count(*window))
        clone = pickle.loads(pickle.dumps(result))
        assert (clone.i_frames_delivered_under_load()
                == result.i_frames_delivered_under_load())
    assert full.i_frames_delivered_under_load() == 1.0


def test_reservation_reduces_latency_and_jitter(net_results):
    unreserved = net_results["1-none"].latency_under_load()
    reserved = net_results["3-full"].latency_under_load()
    assert reserved.mean < unreserved.mean / 5
    assert reserved.std < unreserved.std


def test_filtering_reduces_offered_load(net_results):
    unfiltered = net_results["1-none"].sender_delivery.sent_count()
    filtered = net_results["4-none-filtering"].sender_delivery.sent_count()
    assert filtered < unfiltered * 0.8


def test_fig7_cumulative_counts_monotone(net_results):
    rows = net_results["5-partial-filtering"].cumulative_counts(bin_width=5.0)
    for (t0, s0, r0), (t1, s1, r1) in zip(rows, rows[1:]):
        assert s1 >= s0 and r1 >= r0
    final_time, sent, received = rows[-1]
    assert sent >= received


def test_fig7_gap_opens_during_load_for_unreserved(net_results):
    rows = net_results["1-none"].cumulative_counts(bin_width=5.0)
    by_time = {t: (s, r) for t, s, r in rows}
    pre = by_time[15.0]
    post = by_time[45.0]
    gap_before = pre[0] - pre[1]
    gap_after = post[0] - post[1]
    # The sent/received curves diverge across the load window.
    assert gap_after > gap_before + 200


# ----------------------------------------------------------------------
# CPU reservations (Table 2)
# ----------------------------------------------------------------------
def test_three_cpu_arms():
    assert len(cpu_arms()) == 3


def test_no_load_times_match_nominal_costs(cpu_results):
    result = cpu_results["no-load"]
    from repro.experiments.actors import AtrServant
    for algorithm, nominal in AtrServant.DEFAULT_COSTS.items():
        stats = result.stats(algorithm)
        assert stats.mean == pytest.approx(nominal, rel=0.01)
        assert stats.std < 0.001


def test_load_inflates_times_and_variance(cpu_results):
    baseline = cpu_results["no-load"]
    loaded = cpu_results["load"]
    for algorithm in ("Kirsch", "Prewitt", "Sobel"):
        base = baseline.stats(algorithm)
        under = loaded.stats(algorithm)
        # Paper: +41 % / +13 % / +30 % and visibly larger std dev.
        assert under.mean > base.mean * 1.08
        assert under.std > base.std + 0.005


def test_reserve_restores_baseline(cpu_results):
    baseline = cpu_results["no-load"]
    reserved = cpu_results["load+reserve"]
    for algorithm in ("Kirsch", "Prewitt", "Sobel"):
        base = baseline.stats(algorithm)
        with_reserve = reserved.stats(algorithm)
        # "Adding a CPU reservation reduced the execution time under
        # load to values that are comparable to those exhibited with no
        # load."
        assert with_reserve.mean == pytest.approx(base.mean, rel=0.10)
        assert with_reserve.std < cpu_results["load"].stats(algorithm).std


def test_reserve_restores_throughput(cpu_results):
    assert (cpu_results["load+reserve"].images_processed
            > cpu_results["load"].images_processed * 1.2)
    reserve = cpu_results["load+reserve"].reserve
    assert (reserve.compute, reserve.period) == (RESERVE_COMPUTE,
                                                 RESERVE_PERIOD)
    assert reserve.policy is EnforcementPolicy.SOFT
    assert reserve.replenishments > 0 and reserve.consumed_total > 0
    assert cpu_results["load"].reserve is None
