"""Fig 10's population is built in O(classes): admission and cohorts.

Two things replaced the one-object-per-stream build, and each is held
to the per-stream version it replaced:

* segment-booked admission (``_admit_population``) against the plain
  sequential ``request`` loop, kept here as the oracle, over random
  tenant counts, pool sizes and link budgets — including pools that
  add up to more than the link admits, so the link binds first;
* the cohort run-length encoding (``_class_runs``) against a direct
  per-index classification, and the size of what a 10^5-stream arm
  actually builds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import default_suite
from repro.experiments.capacity_exp import RESERVE_BPS
from repro.experiments.scale_exp import (
    ScaleArm,
    _admit_population,
    _class_runs,
    run_scale_experiment,
    scale_arms,
)
from tests.scale.test_admission_controller import admission_network, egress


def arm_named(name):
    return next(arm for arm in scale_arms() if arm.name == name)


# ----------------------------------------------------------------------
# Admission: segment booking == the sequential loop
# ----------------------------------------------------------------------
def build_controller(bottleneck_bps, pools):
    _, controller = admission_network(
        ("src", "dst"), ("router",),
        (("src", "router", 1e12), ("router", "dst", bottleneck_bps)))
    for j, pool in enumerate(pools):
        if pool is not None:
            controller.set_tenant_pool(f"t{j}", pool)
    return controller


def tenant_of(overload, index, streams, tenants):
    """The per-stream tenant rule, spelled out index by index."""
    if tenants <= 1:
        return "t0"
    if overload and index < streams // 2:
        return "t0"
    if overload:
        return f"t{1 + index % (tenants - 1)}"
    return f"t{index % tenants}"


def sequential_admission(controller, overload, streams, tenants):
    """The oracle: one ``request`` per offered stream, in index order."""
    admitted = []
    for i in range(streams):
        decision = controller.request(
            f"s{i:05d}", src="src", dst="dst", rate_bps=RESERVE_BPS,
            tenant=tenant_of(overload, i, streams, tenants))
        if decision.admitted:
            admitted.append(i)
    return admitted


def books(controller, tenants):
    net = controller.network
    return (controller.admitted_ids(),
            [controller.tenant_committed(f"t{j}") for j in range(tenants)],
            controller.committed(egress(net, "src", "router")),
            controller.committed(egress(net, "router", "dst")),
            controller.requests_seen, controller.requests_rejected)


#: A pool is absent, a few streams wide, or wider than anything offered.
POOL = st.one_of(st.none(),
                 st.floats(min_value=0.0, max_value=60 * RESERVE_BPS),
                 st.integers(0, 40).map(lambda k: k * RESERVE_BPS))


@given(
    st.integers(1, 400),
    st.lists(POOL, min_size=1, max_size=6),
    st.floats(min_value=2e6, max_value=400e6),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_prop_segment_admission_equals_sequential(streams, pools,
                                                  bottleneck_bps, overload):
    tenants = len(pools)
    arm = ScaleArm("x", admission=True, overload=overload)
    fast = build_controller(bottleneck_bps, pools)
    slow = build_controller(bottleneck_bps, pools)
    admitted = _admit_population(fast, arm, streams, tenants)
    assert admitted == sequential_admission(slow, overload, streams, tenants)
    assert books(fast, tenants) == books(slow, tenants)
    assert fast.requests_seen == streams


def test_link_binding_before_any_pool_is_covered():
    """Pools summing past the link budget: the link rejects first and
    every tenant's later streams ride on that rejection."""
    pools = [200 * RESERVE_BPS] * 3
    fast = build_controller(20e6, pools)
    slow = build_controller(20e6, pools)
    arm = ScaleArm("x", admission=True)
    admitted = _admit_population(fast, arm, 5000, 3)
    assert admitted == sequential_admission(slow, False, 5000, 3)
    assert len(admitted) == int(20e6 * 0.9 // RESERVE_BPS)
    assert books(fast, 3) == books(slow, 3)


def test_reject_repeats_books_both_counters():
    controller = build_controller(10e6, [None])
    controller.reject_repeats(7)
    assert (controller.requests_seen, controller.requests_rejected) == (7, 7)
    with pytest.raises(ValueError):
        controller.reject_repeats(-1)


# ----------------------------------------------------------------------
# Cohort runs
# ----------------------------------------------------------------------
@given(st.integers(1, 300), st.data())
@settings(max_examples=200, deadline=None)
def test_prop_class_runs_are_the_run_length_encoding(streams, data):
    indices = st.sets(st.integers(0, streams - 1))
    admitted = sorted(data.draw(indices))
    measured = data.draw(indices)
    runs = _class_runs(streams, admitted, measured)
    # Expanding the runs gives back every unmeasured stream, in index
    # order, with its class.
    classes = [i in set(admitted) for i in range(streams)
               if i not in measured]
    assert [reserved for _, reserved, members in runs
            for _ in range(members)] == classes
    # Maximal: neighbouring runs differ in class; none is empty.
    assert all(a[1] != b[1] for a, b in zip(runs, runs[1:]))
    assert all(members >= 1 for _, _, members in runs)
    unmeasured = [i for i in range(streams) if i not in measured]
    position = 0
    for first, _, members in runs:
        assert first == unmeasured[position]
        position += members


#: admitted streams, then (reserved, members) of every cohort in order.
PINS_AT_100K = {
    "best-effort": (0, [(False, 99_996)]),
    "reserves": (692, [(True, 688), (False, 99_304)]),
    "adaptive": (692, [(True, 688), (False, 99_304)]),
    "overload": (692, [(True, 169), (False, 49_823),
                       (True, 519), (False, 49_481)]),
}


@pytest.mark.parametrize("arm_name", sorted(PINS_AT_100K))
def test_100k_streams_build_a_handful_of_flows(arm_name):
    streams = 100_000
    result = run_scale_experiment(arm_named(arm_name), streams=streams,
                                  duration=0.5)
    admitted, cohorts = PINS_AT_100K[arm_name]
    flows = result.fluid_flows
    assert len(flows) <= 6
    assert flows[-1].name == "cross" and flows[-1].members == 1
    assert [(f.reserved, f.members) for f in flows[:-1]] == cohorts
    assert (sum(f.members for f in flows[:-1])
            == streams - len(result.measured_rows))
    assert result.admitted_count == admitted
    assert result.requests_rejected == (streams - admitted if admitted else 0)
    pool = 1e9 * 0.9 / 4
    committed = 173 * RESERVE_BPS if admitted else 0.0
    assert result.tenant_books == {
        f"t{j}": (committed, pool) for j in range(4)}
    for stats, reserved in ((result.admitted_stats, True),
                            (result.best_effort_stats, False)):
        expected = sum(f.members for f in flows[:-1]
                       if f.reserved == reserved)
        if stats is None:
            assert expected == 0
        else:
            assert stats.count == expected + stats.measured


@pytest.mark.parametrize("arm_name", ["reserves", "adaptive"])
def test_congested_cohort_run_conserves_bytes_under_the_full_suite(arm_name):
    """N=10^4 on a 10 Mbps bottleneck: both classes are squeezed, the
    governor sheds, and the per-link ``offered == served + lost`` law
    (checked at every epoch by ``default_suite()``) holds on ledgers
    that were booked a cohort at a time."""
    suite = default_suite()
    result = run_scale_experiment(
        arm_named(arm_name), streams=10_000, duration=3.0,
        bottleneck_bps=10e6, cross_traffic_bps=4e6, checks=suite)
    assert suite.events_dispatched > 0
    assert result.fluid_epochs >= 1
    link = result.fluid_link
    assert link.name == "router->dst"
    assert link.be_share < 0.01  # congested indeed
    assert link.lost_bytes > 0.0
    assert link.offered_bytes == pytest.approx(
        link.served_bytes + link.lost_bytes, rel=1e-9)
    assert len(result.fluid_flows) <= 6
    if arm_name == "adaptive":
        assert result.governor_transitions >= 9_000  # one per member
