"""AdmissionController unit behaviour (the property suite covers the
ledger invariants; these pin the concrete semantics)."""

import pytest

from repro.net import Network
from repro.net.topology import fat_tree_topology, wan_topology, waxman_topology
from repro.oskernel import Host
from repro.scale.admission import AdmissionController
from repro.sim import Kernel
from tests.net.test_topology import forwarding_path


def dumbbell(bottleneck_bps=10e6):
    controller = AdmissionController()
    controller.add_host("src")
    controller.add_host("dst")
    controller.add_router("r")
    controller.add_link("src", "r", 1e9)
    controller.add_link("r", "dst", bottleneck_bps)
    return controller


def test_bounds_validation():
    with pytest.raises(ValueError):
        AdmissionController(cpu_bound=0.0)
    with pytest.raises(ValueError):
        AdmissionController(link_bound=1.5)


def test_link_requires_known_devices():
    controller = AdmissionController()
    controller.add_host("a")
    with pytest.raises(KeyError):
        controller.add_link("a", "ghost", 1e6)


def test_admits_until_link_budget_then_rejects():
    controller = dumbbell()
    granted = 0
    while True:
        decision = controller.request(f"s{granted}", src="src", dst="dst",
                                      rate_bps=1.3e6)
        if not decision.admitted:
            break
        granted += 1
    # floor(10e6 * 0.9 / 1.3e6) = 6 — the fig 9 saturation count.
    assert granted == 6
    assert "link:r->dst" in decision.reason
    assert controller.link_committed("r", "dst") == pytest.approx(6 * 1.3e6)
    # The access link never saw meaningful pressure.
    assert controller.link_committed("src", "r") == pytest.approx(6 * 1.3e6)
    assert controller.requests_rejected == 1


def test_cpu_bound_checked_per_host():
    controller = dumbbell()
    ok = controller.request("a", cpu={"src": (0.005, 0.01)})  # 0.5
    assert ok.admitted
    rejected = controller.request("b", cpu={"src": (0.005, 0.01),
                                            "dst": (0.001, 0.01)})
    # src would reach 1.0 > 0.9; dst alone would have been fine, but
    # admission is all-or-nothing.
    assert not rejected.admitted
    assert rejected.reason.startswith("cpu:src")
    assert controller.cpu_utilization("dst") == 0.0


def test_rejected_stream_never_mutates_books():
    controller = dumbbell(bottleneck_bps=2e6)
    controller.request("fits", src="src", dst="dst", rate_bps=1e6)
    before = (controller.link_committed("r", "dst"),
              controller.cpu_utilization("src"),
              sorted(controller.admitted_ids()))
    rejected = controller.request("too-fat", src="src", dst="dst",
                                  rate_bps=5e6, cpu={"src": (0.001, 0.01)})
    assert not rejected.admitted
    after = (controller.link_committed("r", "dst"),
             controller.cpu_utilization("src"),
             sorted(controller.admitted_ids()))
    assert after == before


def test_unknown_names_raise():
    controller = dumbbell()
    with pytest.raises(KeyError):
        controller.request("x", src="src", dst="ghost", rate_bps=1.0)
    with pytest.raises(KeyError):
        controller.request("x", cpu={"ghost": (0.001, 0.01)})
    with pytest.raises(ValueError):
        controller.request("x", rate_bps=-1.0)
    with pytest.raises(ValueError):
        controller.request("x", rate_bps=1.0)  # bandwidth without route


def test_hosts_never_transit():
    controller = AdmissionController()
    for name in ("a", "middle", "b"):
        controller.add_host(name)
    controller.add_link("a", "middle", 1e6)
    controller.add_link("middle", "b", 1e6)
    with pytest.raises(KeyError):
        controller.path("a", "b")  # only routers forward


@pytest.mark.parametrize("build, stride", [
    (lambda net: waxman_topology(net, 30, seed=3), 5),
    (lambda net: fat_tree_topology(net, 4), 3),
    (lambda net: wan_topology(net, pops=5, routers_per_pop=3), 2),
], ids=["waxman30-seed3", "fat-tree-k4", "wan-5x3"])
def test_admission_books_the_forwarding_route(build, stride):
    """On graphs with equal-cost paths a grant must book the edges the
    packets (and the RSVP PATH) cross: every host pair's admission
    route equals the walk of the routers' forwarding tables."""
    kernel = Kernel()
    net = Network(kernel)
    for index, router in enumerate(build(net).routers[::stride]):
        host = Host(kernel, f"h{index}")
        net.attach_host(host)
        net.link(host, router)
    net.compute_routes()
    controller = AdmissionController.from_network(net)
    names = [host.name for host in net.hosts]
    wrong = [(a, b) for a in names for b in names if a != b
             and controller.path(a, b) != forwarding_path(net, a, b)]
    assert wrong == []
