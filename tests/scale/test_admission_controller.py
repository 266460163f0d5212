"""AdmissionController unit behaviour (the property suite covers the
ledger invariants; these pin the concrete semantics)."""

import pytest

from repro.experiments import testbed
from repro.net import FlowSpec, Network
from repro.net.topology import fat_tree_topology, wan_topology, waxman_topology
from repro.oskernel import Host
from repro.scale.admission import AdmissionController
from repro.experiments.capacity_exp import (
    ACCESS_BPS,
    BOTTLENECK_BPS,
    LOAD_LINK_BPS,
    RESERVE_BPS,
    RESERVE_BUCKET_BYTES,
)
from repro.sim import Kernel
from tests.net.test_topology import forwarding_path


def admission_network(hosts, routers, links, bound=0.9):
    """``hosts`` and ``routers`` wired by ``(a, b, bps)`` ``links``,
    routed, with RSVP agents at utilization ``bound`` (none if None);
    returns the network and a controller over it."""
    kernel = Kernel()
    net = Network(kernel)
    for name in hosts:
        net.attach_host(Host(kernel, name))
    for name in routers:
        net.add_router(name)
    for a, b, bps in links:
        net.link(a, b, bandwidth_bps=bps)
    net.compute_routes()
    if bound is not None:
        net.enable_intserv(utilization_bound=bound)
    return net, AdmissionController(net)


def dumbbell(bottleneck_bps=10e6, bound=0.9):
    return admission_network(("src", "dst"), ("r",),
                             (("src", "r", 1e9), ("r", "dst", bottleneck_bps)),
                             bound)


def egress(net, a, b):
    """The interface ``a`` sends toward its neighbour ``b`` by."""
    return next(iface for link in net.links for iface in (link.a, link.b)
                if iface.owner.name == a and iface.peer.owner.name == b)


def test_admits_until_link_budget_then_rejects():
    net, controller = dumbbell()
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
    assert controller.committed(egress(net, "r", "dst")) == pytest.approx(
        6 * 1.3e6)
    # The access link never saw meaningful pressure.
    assert controller.committed(egress(net, "src", "r")) == pytest.approx(
        6 * 1.3e6)
    assert controller.committed(egress(net, "dst", "r")) == 0.0
    assert controller.requests_rejected == 1


def test_cpu_reserve_bound_checked_per_host():
    _, controller = dumbbell()
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
    net, controller = dumbbell(bottleneck_bps=2e6)
    bottleneck = egress(net, "r", "dst")
    controller.request("fits", src="src", dst="dst", rate_bps=1e6)
    before = (controller.committed(bottleneck),
              controller.cpu_utilization("src"),
              sorted(controller.admitted_ids()))
    rejected = controller.request("too-fat", src="src", dst="dst",
                                  rate_bps=5e6, cpu={"src": (0.001, 0.01)})
    assert not rejected.admitted
    after = (controller.committed(bottleneck),
             controller.cpu_utilization("src"),
             sorted(controller.admitted_ids()))
    assert after == before


def test_unknown_names_raise():
    _, controller = dumbbell()
    with pytest.raises(KeyError):
        controller.request("x", src="src", dst="ghost", rate_bps=1.0)
    with pytest.raises(KeyError):
        controller.request("x", cpu={"ghost": (0.001, 0.01)})
    with pytest.raises(ValueError):
        controller.request("x", rate_bps=-1.0)
    with pytest.raises(ValueError):
        controller.request("x", rate_bps=1.0)  # bandwidth without route


def test_bandwidth_needs_rsvp_agents():
    """The per-egress budget is the RSVP agent's: no agent, no budget."""
    _, controller = dumbbell(bound=None)
    with pytest.raises(ValueError, match="no RSVP agent"):
        controller.request("x", src="src", dst="dst", rate_bps=1.0)
    assert controller.request("cpu", cpu={"src": (0.001, 0.01)}).admitted


def test_hosts_never_transit():
    _, controller = admission_network(
        ("a", "middle", "b"), (),
        (("a", "middle", 1e6), ("middle", "b", 1e6)))
    with pytest.raises(KeyError):  # only routers forward
        controller.request("x", src="a", dst="b", rate_bps=1.0)
    assert controller.admitted_ids() == []


@pytest.mark.parametrize("build, stride", [
    (lambda net: waxman_topology(net, 30, seed=3), 5),
    (lambda net: fat_tree_topology(net, 4), 3),
    (lambda net: wan_topology(net, pops=5, routers_per_pop=3), 2),
], ids=["waxman30-seed3", "fat-tree-k4", "wan-5x3"])
def test_admission_books_the_forwarding_route(build, stride):
    """On graphs with equal-cost paths a grant must book the egresses
    the packets (and the RSVP PATH) leave by: admitting ``a -> b``
    commits its rate on exactly the hops the forwarding tables walk."""
    kernel = Kernel()
    net = Network(kernel)
    for index, router in enumerate(build(net).routers[::stride]):
        host = Host(kernel, f"h{index}")
        net.attach_host(host)
        net.link(host, router)
    net.compute_routes()
    net.enable_intserv()
    egresses = [iface for link in net.links for iface in (link.a, link.b)]
    names = [host.name for host in net.hosts]
    rate = 1e3
    for a in names:
        for b in names:
            if a == b:
                continue
            controller = AdmissionController(net)
            assert controller.request("s", src=a, dst=b,
                                      rate_bps=rate).admitted
            path = forwarding_path(net, a, b)
            hops = set(zip(path, path[1:]))
            booked = {(e.owner.name, e.peer.owner.name):
                      controller.committed(e) for e in egresses}
            assert booked == {hop: (rate if hop in hops else 0.0)
                              for hop in booked}, (a, b)


def test_admitted_means_installed():
    """EXPERIMENTS §Fig 9's promise: an admitted stream's RSVP
    reservation never fails, and the controller's books equal what the
    agents installed on every egress of the route."""
    bed = testbed.Testbed()
    bed.star({"src": ACCESS_BPS, "dst": BOTTLENECK_BPS,
              "load": LOAD_LINK_BPS}, dst="dst", default_bps=ACCESS_BPS,
             intserv_bound=0.9)
    kernel, net = bed.kernel, bed.network
    controller = AdmissionController(net)
    admitted = []
    while controller.request(f"s{len(admitted)}", src="src", dst="dst",
                             rate_bps=RESERVE_BPS).admitted:
        admitted.append(f"s{len(admitted)}")
    assert len(admitted) == 6

    sender = net.nic_of("src").rsvp_agent
    receiver = net.nic_of("dst").rsvp_agent

    def signal(flow_id):
        sender.announce_path(flow_id, "dst")
        kernel.run(until=kernel.now + 0.1)
        reservation = receiver.reserve(
            flow_id, FlowSpec(RESERVE_BPS, RESERVE_BUCKET_BYTES))
        kernel.run(until=kernel.now + 0.5)
        return reservation

    assert all(signal(flow_id).is_established for flow_id in admitted)
    route = [net.nic_of("src").routes["dst"],
             net.device("router").routes["dst"]]
    for iface in route:
        installed = iface.owner.rsvp_agent.reserved_rate(iface)
        assert controller.committed(iface) == installed > 0
    seventh = signal("s6")
    assert seventh.state == "failed"
    assert "admission failed on 'router->dst'" in seventh.failure_reason
