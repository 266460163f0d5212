"""Integration tests: links, routers, routing, end-to-end delivery."""

import pytest

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import DatagramSocket, Dscp, FifoQueue, Network, Packet, Protocol
from repro.obs import RingBufferSink, Tracer


def forwarding_path(net, src, dst):
    """Device names a packet from ``src`` to ``dst`` visits (inclusive),
    read off the forwarding tables; KeyError if a hop has no route."""
    hops = [src]
    while hops[-1] != dst:
        egress = net.device(hops[-1]).egress_for(dst)
        if egress is None or len(hops) > len(net.hosts) + len(net.routers):
            raise KeyError(f"no path {src} -> {dst}")
        hops.append(egress.peer.owner.name)
    return hops


def net_records(kernel):
    """A sink holding every ``net`` record of ``kernel``'s run."""
    sink = RingBufferSink(capacity=None)
    Tracer(sinks=[sink], layers=["net"]).attach(kernel)
    return sink


def dequeued_at(sink, iface):
    """``hop.dequeue`` records (transmissions started) on ``iface``."""
    return [record for record in sink.records
            if record.kind == "hop.dequeue"
            and record.fields["iface"] == iface.label]


def star_network(kernel, host_names, bandwidth=10e6, delay=50e-6):
    """All hosts connected to one central router."""
    net = Network(kernel, default_bandwidth_bps=bandwidth, default_delay=delay)
    hosts = {}
    for name in host_names:
        host = Host(kernel, name)
        net.attach_host(host)
        hosts[name] = host
    router = net.add_router("r1")
    for host in hosts.values():
        net.link(host, router)
    net.compute_routes()
    return net, hosts, router


def test_two_hosts_datagram_delivery():
    kernel = Kernel()
    net, hosts, _ = star_network(kernel, ["a", "b"])
    received = []
    DatagramSocket(kernel, net.nic_of("b"), port=5000,
                   on_receive=lambda payload, pkt: received.append(payload))
    sock = DatagramSocket(kernel, net.nic_of("a"))
    sock.send_to("b", 5000, payload="hello", payload_bytes=100)
    kernel.run()
    assert received == ["hello"]


def test_latency_is_serialization_plus_propagation():
    kernel = Kernel()
    # 1 Mbps links, 1 ms propagation each.
    net, hosts, _ = star_network(kernel, ["a", "b"], bandwidth=1e6, delay=1e-3)
    arrivals = []
    DatagramSocket(kernel, net.nic_of("b"), port=5000,
                   on_receive=lambda payload, pkt: arrivals.append(
                       (kernel.now, pkt.created_at)))
    sock = DatagramSocket(kernel, net.nic_of("a"))
    sock.send_to("b", 5000, payload_bytes=960)  # 1000 B total = 8000 bits
    kernel.run()
    (now, created), = arrivals
    # Two hops: 2 x (8 ms serialization + 1 ms propagation) = 18 ms.
    assert now - created == pytest.approx(0.018, rel=1e-6)


def test_multi_hop_routing_through_router_chain():
    kernel = Kernel()
    net = Network(kernel)
    a, b = Host(kernel, "a"), Host(kernel, "b")
    net.attach_host(a)
    net.attach_host(b)
    r1, r2 = net.add_router("r1"), net.add_router("r2")
    net.link(a, r1)
    net.link(r1, r2)
    net.link(r2, b)
    net.compute_routes()
    sink = net_records(kernel)
    received = []
    DatagramSocket(kernel, net.nic_of("b"), port=7,
                   on_receive=lambda payload, pkt: received.append(pkt))
    DatagramSocket(kernel, net.nic_of("a")).send_to("b", 7, payload_bytes=10)
    kernel.run()
    assert len(received) == 1
    assert received[0].hops == 3
    assert [record.fields["router"] for record in sink.records
            if record.kind == "route.forward"] == ["r1", "r2"]


def test_path_query():
    kernel = Kernel()
    net = Network(kernel)
    a, b = Host(kernel, "a"), Host(kernel, "b")
    net.attach_host(a)
    net.attach_host(b)
    r1, r2 = net.add_router("r1"), net.add_router("r2")
    net.link(a, r1)
    net.link(r1, r2)
    net.link(r2, b)
    net.compute_routes()
    assert forwarding_path(net, "a", "b") == ["a", "r1", "r2", "b"]


def test_unroutable_packet_counted():
    kernel = Kernel()
    net, hosts, router = star_network(kernel, ["a", "b"])
    sock = DatagramSocket(kernel, net.nic_of("a"))
    sock.send_to("nonexistent", 7, payload_bytes=10)
    kernel.run()
    assert router.unroutable == 1


def test_recompute_after_partition_clears_stale_routes():
    """Regression: ``compute_routes`` must clear before rebuilding.

    Without the clear, partitioning the graph left every router's old
    egress pointing into the cut link, silently parking packets on a
    dead interface instead of counting an unroutable drop."""
    kernel = Kernel()
    net = Network(kernel)
    a, b = Host(kernel, "a"), Host(kernel, "b")
    net.attach_host(a)
    net.attach_host(b)
    r1, r2 = net.add_router("r1"), net.add_router("r2")
    net.link(a, r1)
    dead = net.link(r1, r2)
    net.link(r2, b)
    net.compute_routes()
    assert r1.egress_for("b").link is dead

    dead.fail()
    net.compute_routes()

    # The stale route is gone — not pointing at the cut link.
    assert r1.egress_for("b") is None
    sink = net_records(kernel)
    enqueued_before = dead.a.qdisc.enqueued
    DatagramSocket(kernel, net.nic_of("a")).send_to("b", 7, payload_bytes=10)
    kernel.run()
    # The packet died as an accounted unroutable drop at r1, and no
    # forwarding ever touched the cut link.
    assert r1.unroutable == 1
    assert r1.drops_by_reason == {"unroutable": 1}
    assert r1.dropped == 1
    assert dead.a.qdisc.enqueued == enqueued_before
    assert dequeued_at(sink, dead.a) == []
    assert len(dequeued_at(sink, net.nic_of("a").interface)) == 1


def test_packet_to_unbound_port_counted():
    kernel = Kernel()
    net, hosts, _ = star_network(kernel, ["a", "b"])
    DatagramSocket(kernel, net.nic_of("a")).send_to("b", 4242, payload_bytes=10)
    kernel.run()
    assert net.nic_of("b").undeliverable == 1


def test_loopback_delivery_without_wire():
    kernel = Kernel()
    net, hosts, _ = star_network(kernel, ["a", "b"])
    sink = net_records(kernel)
    received = []
    DatagramSocket(kernel, net.nic_of("a"), port=5000,
                   on_receive=lambda payload, pkt: received.append(payload))
    DatagramSocket(kernel, net.nic_of("a")).send_to("a", 5000, payload="self")
    kernel.run()
    assert received == ["self"]
    assert dequeued_at(sink, net.nic_of("a").interface) == []
    assert [record.kind for record in sink.records] == ["nic.deliver"]


def test_duplicate_device_names_rejected():
    kernel = Kernel()
    net = Network(kernel)
    net.attach_host(Host(kernel, "a"))
    with pytest.raises(ValueError):
        net.attach_host(Host(kernel, "a"))
    net.add_router("r")
    with pytest.raises(ValueError):
        net.add_router("r")


def test_queue_builds_under_offered_overload():
    """Offered load above link rate must queue and then drop."""
    kernel = Kernel()
    net, hosts, router = star_network(kernel, ["a", "b"],
                                      bandwidth=1e6)  # 1 Mbps bottleneck
    sock = DatagramSocket(kernel, net.nic_of("a"))
    received = []
    DatagramSocket(kernel, net.nic_of("b"), port=7,
                   on_receive=lambda payload, pkt: received.append(pkt))
    # 200 x 1 kB back-to-back = 1.6 Mbit into a 1 Mbps pipe.
    for _ in range(200):
        sock.send_to("b", 7, payload_bytes=1000)
    kernel.run()
    egress = net.nic_of("a").interface
    assert egress.qdisc.dropped > 0
    assert len(received) < 200
    assert len(received) == 200 - egress.qdisc.dropped


def test_bidirectional_links_independent():
    kernel = Kernel()
    net, hosts, _ = star_network(kernel, ["a", "b"])
    got_a, got_b = [], []
    DatagramSocket(kernel, net.nic_of("a"), port=1,
                   on_receive=lambda payload, pkt: got_a.append(payload))
    DatagramSocket(kernel, net.nic_of("b"), port=2,
                   on_receive=lambda payload, pkt: got_b.append(payload))
    DatagramSocket(kernel, net.nic_of("a")).send_to("b", 2, payload="to-b")
    DatagramSocket(kernel, net.nic_of("b")).send_to("a", 1, payload="to-a")
    kernel.run()
    assert got_a == ["to-a"]
    assert got_b == ["to-b"]


def test_custom_qdisc_per_direction():
    kernel = Kernel()
    net = Network(kernel)
    a, b = Host(kernel, "a"), Host(kernel, "b")
    net.attach_host(a)
    net.attach_host(b)
    qdisc = FifoQueue(capacity=1, name="tiny")
    net.link(a, b, qdisc_a=qdisc)
    net.compute_routes()
    assert net.nic_of("a").interface.qdisc is qdisc
    assert net.nic_of("b").interface.qdisc is not qdisc
