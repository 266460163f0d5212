"""Queue lanes are built on first arrival.

A ``DiffServQueue`` band and a ``GuaranteedRateQueue``'s reserved lane
are ``None`` until a packet first needs them, so a port that never
carries traffic holds no deques.  These tests pin what an untouched
queue answers, that a capacity set before the first arrival is the one
that arrival meets, and what the laziness is worth on a queue and on
fig 11's 200-router network.
"""

import tracemalloc

import pytest

from repro.experiments import testbed  # not the class: pytest collects Test*
from repro.experiments.route_exp import LINK_BPS
from repro.net import (
    DiffServQueue,
    Dscp,
    GuaranteedRateQueue,
    Packet,
    PhbClass,
    Protocol,
)
from repro.net.topology import generate_topology
from repro.sim import Kernel


def make_packet(dscp=Dscp.BE, flow_id="f"):
    return Packet("a", "b", 1, 2, Protocol.UDP, payload_bytes=500,
                  dscp=dscp, flow_id=flow_id)


def traced_bytes(build):
    """Bytes ``build()`` leaves allocated, held by its return value."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = build()
        cost = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del held
    return cost


def test_fresh_guaranteed_rate_queues_cost_under_a_kilobyte_each():
    # About 5.3-6.0 kB each with seven deques built up front.
    kernel = Kernel()
    cost = traced_bytes(
        lambda: [GuaranteedRateQueue(kernel) for _ in range(1000)])
    assert cost / 1000 < 1024, cost


@pytest.mark.parametrize("make", [
    DiffServQueue, lambda: GuaranteedRateQueue(Kernel())])
def test_untouched_queue_is_empty(make):
    queue = make()
    assert len(queue) == 0
    for phb in PhbClass:
        assert queue.band_depth(phb) == 0
    assert queue.dequeue() is None
    assert queue.dequeued == 0


@pytest.mark.parametrize("make", [
    DiffServQueue, lambda: GuaranteedRateQueue(Kernel())])
def test_capacity_set_before_first_arrival_is_honoured(make):
    queue = make()
    queue.set_band_capacity(PhbClass.EXPEDITED, 2)
    accepted = [queue.enqueue(make_packet(Dscp.EF)) for _ in range(3)]
    assert accepted == [True, True, False]
    assert queue.band_depth(PhbClass.EXPEDITED) == 2
    assert len(queue) == 2
    assert queue.dropped == 1


def test_lanes_keep_service_order_whatever_order_they_are_built_in():
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel)
    be, ef = make_packet(Dscp.BE, "be"), make_packet(Dscp.EF, "ef")
    queue.install_reservation("video", rate_bps=1e6, depth_bytes=4000)
    reserved = make_packet(Dscp.BE, "video")
    for packet in (be, ef, reserved):  # least-preferred lane built first
        assert queue.enqueue(packet)
    assert len(queue) == 3
    assert [queue.dequeue() for _ in range(4)] == [reserved, ef, be, None]
    assert len(queue) == 0


def test_every_lane_built_in_reverse_order_still_serves_in_preference():
    """Best effort first, EF last of the bands, the reserved lane after
    them all: ``dequeue`` scans only built lanes, yet in preference
    order, and ``__len__`` counts every built deque."""
    queue = GuaranteedRateQueue(Kernel())
    queue.install_reservation("video", rate_bps=1e6, depth_bytes=4000)
    by_preference = [make_packet(Dscp.BE, "video")] + [
        make_packet(dscp, dscp.name)
        for dscp in (Dscp.EF, Dscp.AF41, Dscp.AF31, Dscp.AF21, Dscp.AF11,
                     Dscp.BE)]
    for built, packet in enumerate(reversed(by_preference), start=1):
        assert queue.enqueue(packet)
        assert len(queue._built) == built and len(queue) == built
    assert queue.conformed == 1
    assert [queue.dequeue() for _ in range(8)] == by_preference + [None]
    assert len(queue) == 0 and queue.dequeued == 7


def test_fig11_200_router_network_build_stays_affordable():
    """Build, not run, the 200-router Waxman graph of fig 11.

    With every port's seven deques built up front the build allocated
    77 604 380 bytes (``tracemalloc``, Python 3.11: 200 routers, 5 994
    links, two ``GuaranteedRateQueue``\\ s each); with lanes built on
    first arrival it is about 15.0 MB.  The bound is half the former,
    which keeps ROADMAP 7(b)'s 200-500-router soak cases affordable.
    """
    def build():
        bed = testbed.Testbed(1)
        net = bed.build_network(LINK_BPS)
        generate_topology(net, "waxman", 200, seed=1,
                          qdisc_factory=bed.queue)
        return bed

    cost = traced_bytes(build)
    assert cost < 77_604_380 / 2, cost
