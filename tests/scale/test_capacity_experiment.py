"""End-to-end smoke for the capacity farm (small N, short horizon)."""

import pytest

from repro.scale.capacity_exp import (
    CapacityArm,
    all_arms,
    fig9_stream_counts,
    render_fig9_capacity,
    run_capacity_experiment,
)


def run(arm, streams=3, duration=3.0, **kwargs):
    return run_capacity_experiment(arm, streams=streams, duration=duration,
                                   seed=1, **kwargs)


def test_arm_roster_matches_fig9():
    names = [arm.name for arm in all_arms()]
    assert names == ["best-effort", "priority", "reserves", "adaptive"]
    assert fig9_stream_counts() == [1, 2, 4, 8, 16, 32, 64]


def test_uncontended_farm_delivers_nominal_rate():
    result = run(CapacityArm("reserves", priorities=True, admission=True))
    assert result.admitted_count == 3
    assert len(result.rows) == 3
    for row in result.rows:
        assert row.admitted
        assert row.fps > 27.0
        assert row.miss_rate < 0.1
    # Controller books reflect the three grants.
    assert result.bottleneck_committed_bps == pytest.approx(3 * 1.3e6)
    assert result.cpu_utilization > 0.0


def test_best_effort_arm_admits_nothing():
    result = run(CapacityArm("best-effort"))
    assert result.admitted_count == 0
    assert all(not row.admitted for row in result.rows)
    assert all(row.corba_priority is None for row in result.rows)
    assert result.bottleneck_committed_bps == 0.0


def test_priority_arm_gets_distinct_lanes_without_admission():
    result = run(CapacityArm("priority", priorities=True))
    lanes = [row.corba_priority for row in result.rows]
    assert len(set(lanes)) == len(lanes)  # one CORBA priority per stream
    assert result.admitted_count == 0  # lanes alone reserve nothing


def test_oversubscribed_farm_rejects_the_overflow():
    arm = CapacityArm("reserves", priorities=True, admission=True)
    result = run(arm, streams=8, duration=2.0)
    # floor(10e6 * 0.9 / 1.3e6) = 6 admitted, 2 best-effort fallbacks.
    assert result.admitted_count == 6
    assert result.rejected_count == 2
    fallbacks = result.class_rows(False)
    assert len(fallbacks) == 2
    assert all(row.generated > 0 for row in fallbacks)  # still streaming


def test_result_pickles_without_live_actors():
    """The in-process result has no live attribute and equals its
    round trip."""
    import pickle

    result = run(CapacityArm("adaptive", priorities=True, admission=True,
                             adaptation=True))
    assert not {"senders", "receivers"} & set(vars(result))
    blob = pickle.dumps(result)
    clone = pickle.loads(blob)
    assert pickle.dumps(clone) == blob
    assert vars(clone).keys() == vars(result).keys()
    assert clone.arm == result.arm
    assert clone.rows == result.rows


def test_render_covers_every_arm_and_recap():
    sweeps = {}
    for arm in (CapacityArm("best-effort"),
                CapacityArm("reserves", priorities=True, admission=True)):
        sweeps[arm.name] = [run(arm, streams=n, duration=2.0)
                            for n in (1, 2)]
    text = render_fig9_capacity(sweeps)
    assert "Fig 9 — capacity sweep — best-effort" in text
    assert "Fig 9 — capacity sweep — reserves" in text
    assert "saturation recap (N=2" in text


def test_arm_equality_and_reduce():
    import pickle

    arm = CapacityArm("adaptive", priorities=True, admission=True,
                      adaptation=True)
    clone = pickle.loads(pickle.dumps(arm))
    assert clone == arm
    assert pickle.dumps(clone) == pickle.dumps(arm)  # byte-stable
