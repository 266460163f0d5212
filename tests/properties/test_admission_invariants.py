"""Property tests: admission-controller ledger invariants.

The :class:`~repro.scale.admission.AdmissionController` promises that
its books never overcommit any budget and that rejection is
side-effect free.  These tests drive random admission sequences over
a small dumbbell topology and check, after *every* request:

- no host's admitted CPU utilization exceeds its bound;
- no egress's committed bandwidth exceeds its RSVP budget;
- a rejection leaves every ledger entry exactly as it was.
"""

from hypothesis import given, settings, strategies as st

from tests.scale.test_admission_controller import admission_network

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
    _, controller = admission_network(
        HOSTS, ("r1", "r2"),
        [(a, b, bps) for (a, b), bps in zip(EDGE_NAMES, link_bps)])
    return controller


def egresses(controller):
    """Every egress of the network, by ``"a->b"`` name."""
    return {iface.name: iface for link in controller.network.links
            for iface in (link.a, link.b)}


def snapshot(controller):
    """Every ledger figure the controller exposes, as one value."""
    books = {f"cpu:{host}": controller.cpu_utilization(host)
             for host in HOSTS}
    for name, iface in egresses(controller).items():
        books[f"egress:{name}"] = controller.committed(iface)
    books["admitted"] = sorted(controller.admitted_ids())
    return books


def assert_within_budgets(controller):
    net = controller.network
    for host in HOSTS:
        bound = net.host(host).reserve_manager.utilization_bound
        assert controller.cpu_utilization(host) <= bound + 1e-12
    for iface in egresses(controller).values():
        budget = (iface.link.nominal_bandwidth_bps
                  * iface.owner.rsvp_agent.utilization_bound)
        assert controller.committed(iface) <= budget + 1e-9


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
        assert_within_budgets(controller)
    assert controller.requests_seen >= controller.requests_rejected
    assert sorted(controller.admitted_ids()) == sorted(live)


@given(st.lists(st.floats(min_value=1e6, max_value=20e6),
                min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_prop_rejection_counts_and_duplicate_guard(link_bps):
    controller = build_controller(link_bps)
    # Tightest budget on the src-a -> dst route (src-b's access link is
    # off-path and must not influence this request).
    on_path = [egresses(controller)[name]
               for name in ("src-a->r1", "r1->r2", "r2->dst")]
    bottleneck = min(iface.link.nominal_bandwidth_bps
                     * iface.owner.rsvp_agent.utilization_bound
                     for iface in on_path)
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
