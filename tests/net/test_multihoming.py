"""Tests for multi-homed hosts (e.g. the Fig 3 video distributor)."""

import pytest

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import DatagramSocket, GuaranteedRateQueue, Network
from tests.net.test_topology import forwarding_path


def dual_segment_network(kernel):
    """uav -- r1 -- distributor -- r2 -- station: the distributor host
    bridges two segments with two interfaces (but never forwards)."""
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("uav", "distributor", "station"):
        net.attach_host(Host(kernel, name))
    r1, r2 = net.add_router("r1"), net.add_router("r2")
    net.link("uav", r1)
    net.link(r1, "distributor")
    net.link("distributor", r2)
    net.link(r2, "station")
    net.compute_routes()
    return net, r1, r2


def test_multihomed_host_gets_two_interfaces():
    kernel = Kernel()
    net, _, _ = dual_segment_network(kernel)
    nic = net.nic_of("distributor")
    assert len(nic.interfaces) == 2
    assert nic.interface is nic.interfaces[0]


def test_sends_choose_interface_per_destination():
    kernel = Kernel()
    net, _, _ = dual_segment_network(kernel)
    nic = net.nic_of("distributor")
    toward_uav = nic.egress_for("uav")
    toward_station = nic.egress_for("station")
    assert toward_uav is not toward_station
    assert toward_uav.name == "distributor->r1"
    assert toward_station.name == "distributor->r2"


def test_end_to_end_relay_through_both_segments():
    kernel = Kernel()
    net, _, _ = dual_segment_network(kernel)
    at_station = []

    def relay(payload, packet):
        DatagramSocket(kernel, net.nic_of("distributor")).send_to(
            "station", 7001, payload)

    DatagramSocket(kernel, net.nic_of("distributor"), port=7000,
                   on_receive=relay)
    DatagramSocket(kernel, net.nic_of("station"), port=7001,
                   on_receive=lambda payload, pkt: at_station.append(payload))
    DatagramSocket(kernel, net.nic_of("uav")).send_to(
        "distributor", 7000, "frame", payload_bytes=1000)
    kernel.run()
    assert at_station == ["frame"]


def test_hosts_do_not_forward_transit_traffic():
    """uav -> station has no router-only path: traffic must NOT sneak
    through the distributor host."""
    kernel = Kernel()
    net, r1, r2 = dual_segment_network(kernel)
    got = []
    DatagramSocket(kernel, net.nic_of("station"), port=7,
                   on_receive=lambda payload, pkt: got.append(payload))
    DatagramSocket(kernel, net.nic_of("uav")).send_to("station", 7, "x")
    kernel.run()
    assert got == []  # no route exists that respects no-host-transit
    assert r1.unroutable == 1


def test_path_respects_no_host_transit():
    kernel = Kernel()
    net, _, _ = dual_segment_network(kernel)
    assert forwarding_path(net, "uav", "distributor") == [
        "uav", "r1", "distributor"]
    assert forwarding_path(net, "distributor", "station") == [
        "distributor", "r2", "station"]
    with pytest.raises(KeyError):
        forwarding_path(net, "uav", "station")


def test_rsvp_reservation_on_multihomed_sender():
    """The distributor reserving toward the station must install the
    bucket on its station-facing interface, not its uav-facing one."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("uav", "distributor", "station"):
        net.attach_host(Host(kernel, name))
    r1, r2 = net.add_router("r1"), net.add_router("r2")

    def q():
        return GuaranteedRateQueue(kernel)

    net.link("uav", r1, qdisc_a=q(), qdisc_b=q())
    net.link(r1, "distributor", qdisc_a=q(), qdisc_b=q())
    net.link("distributor", r2, qdisc_a=q(), qdisc_b=q())
    net.link(r2, "station", qdisc_a=q(), qdisc_b=q())
    net.compute_routes()
    net.enable_intserv()

    sender = net.nic_of("distributor").rsvp_agent
    receiver = net.nic_of("station").rsvp_agent
    sender.announce_path("relay-flow", "station")
    kernel.run(until=0.2)
    from repro.net import FlowSpec
    reservation = receiver.reserve("relay-flow", FlowSpec(1e6, 10_000))
    kernel.run(until=1.0)
    assert reservation.is_established
    nic = net.nic_of("distributor")
    station_side = nic.egress_for("station")
    uav_side = nic.egress_for("uav")
    assert "relay-flow" in station_side.qdisc.reserved_flows()
    assert "relay-flow" not in uav_side.qdisc.reserved_flows()
