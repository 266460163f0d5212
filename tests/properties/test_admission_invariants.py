"""Property tests: admission-controller ledger invariants.

The :class:`~repro.scale.admission.AdmissionController` promises that
its books never overcommit any budget and that rejection is
side-effect free.  These tests drive random admission sequences over
a small dumbbell topology and check, after *every* request:

- no host's admitted CPU utilization exceeds its bound;
- no directed edge's committed bandwidth exceeds its RSVP budget;
- a rejection leaves every ledger entry exactly as it was.
"""

from hypothesis import given, settings, strategies as st

from repro.scale.admission import AdmissionController

HOSTS = ("src-a", "src-b", "dst")
EDGE_NAMES = (("src-a", "r1"), ("src-b", "r1"), ("r1", "r2"), ("r2", "dst"))

RATE = st.floats(min_value=0.0, max_value=8e6)
COMPUTE = st.floats(min_value=1e-4, max_value=0.02)
PERIOD = st.floats(min_value=0.02, max_value=0.1)

REQUEST = st.tuples(
    st.sampled_from(("src-a", "src-b")),          # src (dst is fixed)
    RATE,
    st.one_of(st.none(), st.tuples(COMPUTE, PERIOD)),
)
OPS = st.lists(REQUEST, max_size=40)


def build_controller(link_bps):
    controller = AdmissionController()
    for host in HOSTS:
        controller.add_host(host)
    controller.add_router("r1")
    controller.add_router("r2")
    for (a, b), bps in zip(EDGE_NAMES, link_bps):
        controller.add_link(a, b, bps)
    return controller


def snapshot(controller):
    """Every ledger figure the controller exposes, as one value."""
    books = {f"cpu:{host}": controller.cpu_utilization(host)
             for host in HOSTS}
    for a, b in EDGE_NAMES:
        books[f"edge:{a}->{b}"] = controller.link_committed(a, b)
        books[f"edge:{b}->{a}"] = controller.link_committed(b, a)
    books["admitted"] = sorted(controller.admitted_ids())
    return books


def assert_within_budgets(controller, link_bps):
    for host in HOSTS:
        assert (controller.cpu_utilization(host)
                <= controller.cpu_bound + 1e-12)
    for (a, b), bps in zip(EDGE_NAMES, link_bps):
        budget = bps * controller.link_bound
        assert controller.link_committed(a, b) <= budget + 1e-9
        assert controller.link_committed(b, a) <= budget + 1e-9


@given(
    st.lists(st.floats(min_value=1e6, max_value=20e6),
             min_size=4, max_size=4),
    OPS,
)
@settings(max_examples=60, deadline=None)
def test_prop_books_never_exceed_budgets(link_bps, operations):
    """No request sequence can push any ledger past its bound, and
    every rejection leaves the books untouched."""
    controller = build_controller(link_bps)
    next_id = 0
    live = []
    for src, rate, cpu_demand in operations:
        cpu = (None if cpu_demand is None
               else {src: cpu_demand})
        before = snapshot(controller)
        decision = controller.request(
            f"s{next_id}", src=src, dst="dst", rate_bps=rate, cpu=cpu)
        next_id += 1
        if decision.admitted:
            live.append(decision.stream_id)
        else:
            assert decision.reason  # rejections always say why
            assert snapshot(controller) == before
        assert_within_budgets(controller, link_bps)
    assert controller.requests_seen >= controller.requests_rejected
    assert sorted(controller.admitted_ids()) == sorted(live)


@given(st.lists(st.floats(min_value=1e6, max_value=20e6),
                min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_prop_rejection_counts_and_duplicate_guard(link_bps):
    controller = build_controller(link_bps)
    # Tightest budget on the src-a -> dst route (src-b's access link is
    # off-path and must not influence this request).
    on_path = (link_bps[0], link_bps[2], link_bps[3])
    bottleneck = min(on_path) * controller.link_bound
    decision = controller.request("fat", src="src-a", dst="dst",
                                  rate_bps=bottleneck * 2)
    assert not decision.admitted
    assert controller.requests_rejected == 1
    ok = controller.request("fit", src="src-a", dst="dst",
                            rate_bps=bottleneck / 2)
    assert ok.admitted
    try:
        controller.request("fit", src="src-a", dst="dst", rate_bps=1.0)
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("duplicate stream id must raise")
