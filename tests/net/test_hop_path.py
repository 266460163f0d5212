"""Edge behaviour of one hop step: Interface.send / _kick /
_transmit_done / _deliver, Nic.send and Router.receive.

The hop path was flattened (an idle-only kick, the common transmit end
first, egress resolved in the caller's frame) under a bit-identity
claim; the fault gauntlet below is compared with the ``hop.*`` record
sequence the *parent* commit produced for the same scenario.
"""

import random

import pytest

from repro.sim import Kernel
from repro.oskernel import Host
from repro.experiments import testbed  # not the class: pytest collects Test*
from repro.experiments.reservation_net_exp import (
    NetworkArm,
    run_network_reservation_experiment,
)
from repro.net import (
    DatagramSocket,
    FifoQueue,
    GuaranteedRateQueue,
    Link,
    Network,
    Nic,
    Packet,
    Protocol,
)
from repro.obs import RingBufferSink, Tracer


def two_hop_rig(kernel, bandwidth_bps=1e6, qdisc=None):
    """``a - r - b``; ``qdisc()``, if given, builds every egress queue."""
    net = Network(kernel, default_bandwidth_bps=bandwidth_bps)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")

    def queues():
        return {} if qdisc is None else {"qdisc_a": qdisc(),
                                         "qdisc_b": qdisc()}

    link_a = net.link("a", router, **queues())
    link_b = net.link(router, "b", **queues())
    net.compute_routes()
    return net, router, link_a, link_b


def datagram(dst="b", nbytes=500):
    return Packet("a", dst, 1, 7, Protocol.UDP, payload_bytes=nbytes)


def kinds_at(sink, kind, key, value):
    """How many ``kind`` records in ``sink`` carry ``value`` in field
    ``key``."""
    return sum(1 for record in sink.records
               if record.kind == kind and record.fields[key] == value)


def heap_entries(kernel, event):
    """``(time, seq)`` of every heap entry holding ``event``: exactly one
    while it is armed, and a re-arm would change it."""
    return [entry[:2] for entry in kernel._heap if entry[2] is event]


# ----------------------------------------------------------------------
# A busy transmitter is left alone
# ----------------------------------------------------------------------
def test_send_on_busy_interface_neither_restarts_nor_rearms():
    kernel = Kernel()
    net, _, _, _ = two_hop_rig(kernel)
    sink = RingBufferSink(capacity=None)
    Tracer(sinks=[sink], layers=["net"]).attach(kernel)
    iface = net.nic_of("a").interface

    assert iface.send(datagram())
    assert iface._busy
    event = iface._tx_event
    armed = heap_entries(kernel, event)
    assert len(armed) == 1
    assert event._kernel is kernel and kernel.pending() == 1

    for _ in range(3):  # arrivals while the first frame is on the wire
        assert iface.send(datagram())
        assert iface._tx_event is event
        assert heap_entries(kernel, event) == armed  # not re-armed
        assert kernel.pending() == 1             # no second transmission
    assert len(iface.qdisc) == 3
    assert [r.kind for r in sink.records] == [
        "hop.enqueue", "hop.dequeue", "hop.enqueue", "hop.enqueue",
        "hop.enqueue"]

    kernel.run()
    # One handle carried all four transmissions, one after the other.
    assert iface._tx_event is event and not iface._busy
    assert iface.qdisc.dequeued == 4 and len(iface.qdisc) == 0
    assert kinds_at(sink, "hop.rx", "iface",
                    net.nic_of("b").interface.label) == 4


def test_restore_does_not_disturb_a_transmission_in_flight():
    """fail() + restore() inside one transmission: the transmitter is
    still busy when restore() kicks it, and must not start another."""
    kernel = Kernel()
    net, _, link_a, _ = two_hop_rig(kernel)
    bound = DatagramSocket(kernel, net.nic_of("b"), port=7)
    iface = net.nic_of("a").interface
    iface.send(datagram())
    iface.send(datagram())
    event = iface._tx_event
    armed = heap_entries(kernel, event)
    assert len(armed) == 1
    link_a.fail()
    link_a.restore()
    assert iface._tx_event is event
    assert heap_entries(kernel, event) == armed
    assert kernel.pending() == 1 and len(iface.qdisc) == 1
    kernel.run()
    assert bound.received == 2
    assert link_a.packets_lost == 0


# ----------------------------------------------------------------------
# Fault gauntlet against the parent's recorded run
# ----------------------------------------------------------------------
def run_fault_gauntlet(qdisc=None):
    """16 datagrams at 3 ms spacing over two 1 Mbps hops (4.32 ms per
    frame, so a queue stands at ``a``), through: a cut of the first link
    mid-transmission, its restore with a standing queue, a loss burst
    on both links drawing from one shared RNG, and a cut + restore of
    the second link mid-transmission.  ``qdisc`` as for
    ``two_hop_rig``."""
    kernel = Kernel()
    net, _, link_a, link_b = two_hop_rig(kernel, qdisc=qdisc)
    sink = RingBufferSink(capacity=None)
    Tracer(sinks=[sink], layers=["net"]).attach(kernel)
    DatagramSocket(kernel, net.nic_of("b"), port=7)
    sender = DatagramSocket(kernel, net.nic_of("a"))
    for i in range(16):
        kernel.schedule(i * 0.003, sender.send_to, "b", 7, i, 500)
    shared = random.Random(7)

    def burst(probability, rng):
        for link in (link_a, link_b):
            link.loss_probability = probability
            link.loss_rng = rng

    kernel.schedule(0.010, link_a.fail)
    kernel.schedule(0.020, link_a.restore)
    kernel.schedule(0.030, burst, 0.4, shared)
    kernel.schedule(0.060, burst, 0.0, None)
    kernel.schedule(0.070, link_b.fail)
    kernel.schedule(0.075, link_b.restore)
    kernel.run()

    hops = [r for r in sink.records if r.kind.startswith("hop.")]
    first = min(r.fields["packet"] for r in hops)
    lines = []
    for r in hops:
        line = "%6d %-11s %-7s %2d" % (
            round(r.time * 1e6), r.kind, r.fields["iface"],
            r.fields["packet"] - first)
        if "reason" in r.fields:
            line += " " + r.fields["reason"]
        lines.append(line)
    return "\n".join(lines), (link_a.packets_lost, link_b.packets_lost)


#: ``run_fault_gauntlet()`` at the parent commit (two-level queues,
#: unconditional kick, link-down branch first): time in microseconds,
#: kind, interface, packet ordinal, loss reason.
PARENT_GAUNTLET = """\
     0 hop.enqueue a.a->r   0
     0 hop.dequeue a.a->r   0
  3000 hop.enqueue a.a->r   1
  4320 hop.dequeue a.a->r   1
  4370 hop.rx      r.r->a   0
  4370 hop.enqueue r.r->b   0
  4370 hop.dequeue r.r->b   0
  6000 hop.enqueue a.a->r   2
  8640 hop.dequeue a.a->r   2
  8690 hop.rx      r.r->a   1
  8690 hop.enqueue r.r->b   1
  8690 hop.dequeue r.r->b   1
  8740 hop.rx      b.b->r   0
  9000 hop.enqueue a.a->r   3
 12000 hop.enqueue a.a->r   4
 12960 hop.loss    a.a->r   2
 13060 hop.rx      b.b->r   1
 15000 hop.enqueue a.a->r   5
 18000 hop.enqueue a.a->r   6
 20000 hop.dequeue a.a->r   3
 21000 hop.enqueue a.a->r   7
 24000 hop.enqueue a.a->r   8
 24320 hop.dequeue a.a->r   4
 24370 hop.rx      r.r->a   3
 24370 hop.enqueue r.r->b   3
 24370 hop.dequeue r.r->b   3
 27000 hop.enqueue a.a->r   9
 28640 hop.dequeue a.a->r   5
 28690 hop.rx      r.r->a   4
 28690 hop.enqueue r.r->b   4
 28690 hop.dequeue r.r->b   4
 28740 hop.rx      b.b->r   3
 30000 hop.enqueue a.a->r  10
 32960 hop.loss    a.a->r   5 burst
 32960 hop.dequeue a.a->r   6
 33000 hop.enqueue a.a->r  11
 33010 hop.loss    r.r->b   4 burst
 36000 hop.enqueue a.a->r  12
 37280 hop.dequeue a.a->r   7
 37330 hop.rx      r.r->a   6
 37330 hop.enqueue r.r->b   6
 37330 hop.dequeue r.r->b   6
 39000 hop.enqueue a.a->r  13
 41600 hop.loss    a.a->r   7 burst
 41600 hop.dequeue a.a->r   8
 41700 hop.rx      b.b->r   6
 42000 hop.enqueue a.a->r  14
 45000 hop.enqueue a.a->r  15
 45920 hop.loss    a.a->r   8 burst
 45920 hop.dequeue a.a->r   9
 50240 hop.loss    a.a->r   9 burst
 50240 hop.dequeue a.a->r  10
 54560 hop.dequeue a.a->r  11
 54610 hop.rx      r.r->a  10
 54610 hop.enqueue r.r->b  10
 54610 hop.dequeue r.r->b  10
 58880 hop.loss    a.a->r  11 burst
 58880 hop.dequeue a.a->r  12
 58980 hop.rx      b.b->r  10
 63200 hop.dequeue a.a->r  13
 63250 hop.rx      r.r->a  12
 63250 hop.enqueue r.r->b  12
 63250 hop.dequeue r.r->b  12
 67520 hop.dequeue a.a->r  14
 67570 hop.rx      r.r->a  13
 67570 hop.enqueue r.r->b  13
 67570 hop.dequeue r.r->b  13
 67620 hop.rx      b.b->r  12
 71840 hop.dequeue a.a->r  15
 71890 hop.loss    r.r->b  13
 71890 hop.rx      r.r->a  14
 71890 hop.enqueue r.r->b  14
 75000 hop.dequeue r.r->b  14
 76210 hop.rx      r.r->a  15
 76210 hop.enqueue r.r->b  15
 79320 hop.dequeue r.r->b  15
 79370 hop.rx      b.b->r  14
 83690 hop.rx      b.b->r  15"""

PARENT_LOST = (6, 2)  # packets_lost on a<->r, r<->b


def test_fault_gauntlet_hop_sequence_matches_recorded_parent_run():
    sequence, lost = run_fault_gauntlet()
    assert lost == PARENT_LOST
    assert sequence == PARENT_GAUNTLET
    # The scenario really does reach every branch it claims to.
    assert " burst" in sequence                      # injected loss
    assert any(line.split()[1] == "hop.loss" and len(line.split()) == 4
               for line in sequence.splitlines())    # link-down loss


# ----------------------------------------------------------------------
# The transmitter wakes only for a frame it can send
# ----------------------------------------------------------------------
def counting(base):
    """``base`` with a record of the ``dequeue`` calls that found it
    empty: ``True`` for one made inside ``Link.restore``."""
    class Counting(base):
        restoring = False

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.empty_dequeues = []

        def dequeue(self):
            packet = super().dequeue()
            if packet is None:
                self.empty_dequeues.append(Counting.restoring)
            return packet

    return Counting


def test_fault_gauntlet_dequeues_an_empty_queue_only_on_restore(
        monkeypatch):
    """The same gauntlet through counting queues: the ``hop.*``
    sequence is the recorded one, and the only dequeue calls that come
    back empty are ``Link.restore``'s kicks of idle transmitters."""
    queues = []
    queue_class = counting(FifoQueue)

    def make():
        queues.append(queue_class())
        return queues[-1]

    restore = Link.restore

    def flagged_restore(link):
        queue_class.restoring = True
        try:
            restore(link)
        finally:
            queue_class.restoring = False

    monkeypatch.setattr(Link, "restore", flagged_restore)
    sequence, lost = run_fault_gauntlet(qdisc=make)
    assert (sequence, lost) == (PARENT_GAUNTLET, PARENT_LOST)
    empty = [flag for queue in queues for flag in queue.empty_dequeues]
    assert empty and all(empty)  # restores found idle, empty ports


def test_congested_bottleneck_never_dequeues_an_empty_queue(monkeypatch):
    """A table 1 arm (RSVP reservation, 43.8 Mbps load burst) with every
    egress a counting guaranteed-rate queue: no ``dequeue`` call finds
    its queue empty, on the congested bottleneck or anywhere else."""
    queues = {}
    queue_class = counting(GuaranteedRateQueue)

    def queue(bed, name="intserv", band_capacity=200):
        queues[name] = queue_class(bed.kernel, band_capacity, name=name)
        return queues[name]

    monkeypatch.setattr(testbed.Testbed, "queue", queue)
    run_network_reservation_experiment(
        NetworkArm("5-partial-filtering", "partial", True),
        duration=20, load_start=5, load_end=12)
    bottleneck = queues["bottleneck"]
    assert bottleneck.dropped > 0 and bottleneck.conformed > 0
    assert bottleneck.dequeued > 5_000
    assert {name: q.empty_dequeues for name, q in queues.items()
            if q.empty_dequeues} == {}


# ----------------------------------------------------------------------
# Long wires: several frames in flight on one link direction
# ----------------------------------------------------------------------
def run_long_wire():
    """13 datagrams of mixed sizes over a 1 Mbps, 12 ms hop and a 2 Mbps,
    7 ms hop: a link delay longer than a frame's transmit time, so up to
    four frames are on one wire at once and each interface's delivery
    ring grows, wraps and drains (a burst at 0, four sends from 30 ms,
    three from 80 ms after the wires emptied).  Returns the ``hop.*``
    lines and the ``sim`` ``event.dispatch`` ``(seq, callback)`` lines."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=1e6)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    net.link("a", router, delay=0.012)
    net.link(router, "b", bandwidth_bps=2e6, delay=0.007)
    net.compute_routes()
    sink = RingBufferSink(capacity=None)
    Tracer(sinks=[sink], layers=["net", "sim"]).attach(kernel)
    DatagramSocket(kernel, net.nic_of("b"), port=7)
    sender = DatagramSocket(kernel, net.nic_of("a"))
    sends = [(0.0, 300 + 100 * i) for i in range(6)]
    sends += [(0.030 + 0.002 * i, 900 - 150 * i) for i in range(4)]
    sends += [(0.080, 400), (0.080, 1200), (0.0805, 200)]
    for i, (at, nbytes) in enumerate(sends):
        kernel.schedule(at, sender.send_to, "b", 7, i, nbytes)
    kernel.run()

    hops = [r for r in sink.records if r.kind.startswith("hop.")]
    first = min(r.fields["packet"] for r in hops)
    hop_lines = ["%6d %-11s %-7s %2d" % (
        round(r.time * 1e6), r.kind, r.fields["iface"],
        r.fields["packet"] - first) for r in hops]
    dispatch_lines = ["%3d %s" % (r.fields["seq"], r.fields["callback"])
                      for r in sink.records
                      if r.layer == "sim" and r.kind == "event.dispatch"]
    return "\n".join(hop_lines), "\n".join(dispatch_lines)


#: ``run_long_wire()`` at the commit before delivery handles became a
#: per-interface ring (one handle, a fresh ``schedule()`` whenever the
#: previous frame was still in flight): time in microseconds, kind,
#: interface, packet ordinal.
PARENT_LONG_WIRE_HOPS = """\
     0 hop.enqueue a.a->r   0
     0 hop.dequeue a.a->r   0
     0 hop.enqueue a.a->r   1
     0 hop.enqueue a.a->r   2
     0 hop.enqueue a.a->r   3
     0 hop.enqueue a.a->r   4
     0 hop.enqueue a.a->r   5
  2720 hop.dequeue a.a->r   1
  6240 hop.dequeue a.a->r   2
 10560 hop.dequeue a.a->r   3
 14720 hop.rx      r.r->a   0
 14720 hop.enqueue r.r->b   0
 14720 hop.dequeue r.r->b   0
 15680 hop.dequeue a.a->r   4
 18240 hop.rx      r.r->a   1
 18240 hop.enqueue r.r->b   1
 18240 hop.dequeue r.r->b   1
 21600 hop.dequeue a.a->r   5
 22560 hop.rx      r.r->a   2
 22560 hop.enqueue r.r->b   2
 22560 hop.dequeue r.r->b   2
 23080 hop.rx      b.b->r   0
 27000 hop.rx      b.b->r   1
 27680 hop.rx      r.r->a   3
 27680 hop.enqueue r.r->b   3
 27680 hop.dequeue r.r->b   3
 30000 hop.enqueue a.a->r   6
 30000 hop.dequeue a.a->r   6
 31720 hop.rx      b.b->r   2
 32000 hop.enqueue a.a->r   7
 33600 hop.rx      r.r->a   4
 33600 hop.enqueue r.r->b   4
 33600 hop.dequeue r.r->b   4
 34000 hop.enqueue a.a->r   8
 36000 hop.enqueue a.a->r   9
 37240 hop.rx      b.b->r   3
 37520 hop.dequeue a.a->r   7
 40320 hop.rx      r.r->a   5
 40320 hop.enqueue r.r->b   5
 40320 hop.dequeue r.r->b   5
 43560 hop.rx      b.b->r   4
 43840 hop.dequeue a.a->r   8
 48960 hop.dequeue a.a->r   9
 49520 hop.rx      r.r->a   6
 49520 hop.enqueue r.r->b   6
 49520 hop.dequeue r.r->b   6
 50680 hop.rx      b.b->r   5
 55840 hop.rx      r.r->a   7
 55840 hop.enqueue r.r->b   7
 55840 hop.dequeue r.r->b   7
 60280 hop.rx      b.b->r   6
 60960 hop.rx      r.r->a   8
 60960 hop.enqueue r.r->b   8
 60960 hop.dequeue r.r->b   8
 64880 hop.rx      r.r->a   9
 64880 hop.enqueue r.r->b   9
 64880 hop.dequeue r.r->b   9
 66000 hop.rx      b.b->r   7
 70520 hop.rx      b.b->r   8
 73840 hop.rx      b.b->r   9
 80000 hop.enqueue a.a->r  10
 80000 hop.dequeue a.a->r  10
 80000 hop.enqueue a.a->r  11
 80500 hop.enqueue a.a->r  12
 83520 hop.dequeue a.a->r  11
 93440 hop.dequeue a.a->r  12
 95520 hop.rx      r.r->a  10
 95520 hop.enqueue r.r->b  10
 95520 hop.dequeue r.r->b  10
104280 hop.rx      b.b->r  10
105440 hop.rx      r.r->a  11
105440 hop.enqueue r.r->b  11
105440 hop.dequeue r.r->b  11
107360 hop.rx      r.r->a  12
107360 hop.enqueue r.r->b  12
110400 hop.dequeue r.r->b  12
117400 hop.rx      b.b->r  11
118360 hop.rx      b.b->r  12"""

#: The same run's dispatch order: ``seq``, callback qualname.
PARENT_LONG_WIRE_DISPATCH = """\
  0 DatagramSocket.send_to
  1 DatagramSocket.send_to
  2 DatagramSocket.send_to
  3 DatagramSocket.send_to
  4 DatagramSocket.send_to
  5 DatagramSocket.send_to
 13 Interface._transmit_done
 15 Interface._transmit_done
 17 Interface._transmit_done
 14 Interface._deliver
 19 Interface._transmit_done
 20 Interface._transmit_done
 16 Interface._deliver
 24 Interface._transmit_done
 22 Interface._transmit_done
 18 Interface._deliver
 23 Interface._deliver
 28 Interface._transmit_done
 25 Interface._deliver
 21 Interface._deliver
 27 Interface._transmit_done
  6 DatagramSocket.send_to
 30 Interface._transmit_done
 29 Interface._deliver
  7 DatagramSocket.send_to
 26 Interface._deliver
  8 DatagramSocket.send_to
  9 DatagramSocket.send_to
 34 Interface._transmit_done
 33 Interface._deliver
 32 Interface._transmit_done
 31 Interface._deliver
 35 Interface._deliver
 38 Interface._transmit_done
 37 Interface._transmit_done
 41 Interface._transmit_done
 36 Interface._deliver
 39 Interface._deliver
 43 Interface._transmit_done
 44 Interface._transmit_done
 40 Interface._deliver
 47 Interface._transmit_done
 46 Interface._deliver
 42 Interface._deliver
 49 Interface._transmit_done
 45 Interface._deliver
 48 Interface._deliver
 51 Interface._transmit_done
 50 Interface._deliver
 52 Interface._deliver
 10 DatagramSocket.send_to
 11 DatagramSocket.send_to
 12 DatagramSocket.send_to
 53 Interface._transmit_done
 55 Interface._transmit_done
 57 Interface._transmit_done
 54 Interface._deliver
 59 Interface._transmit_done
 60 Interface._deliver
 56 Interface._deliver
 58 Interface._deliver
 61 Interface._transmit_done
 63 Interface._transmit_done
 62 Interface._deliver
 64 Interface._deliver"""


def test_long_wire_hop_and_dispatch_sequence_match_recorded_parent_run():
    hops, dispatch = run_long_wire()
    assert hops == PARENT_LONG_WIRE_HOPS
    assert dispatch == PARENT_LONG_WIRE_DISPATCH
    # The run really does put several frames on one wire at once: a
    # frame is sent on a->r before the one sent ahead of it has arrived.
    sent = [line.split() for line in hops.splitlines()]
    in_flight = peak = 0
    for _, kind, iface, _ in sent:
        if iface == "a.a->r" and kind == "hop.dequeue":
            in_flight += 1
            peak = max(peak, in_flight)
        elif iface == "r.r->a" and kind == "hop.rx":
            in_flight -= 1
    assert peak >= 3


def test_delivery_ring_holds_one_handle_per_frame_in_flight():
    """A 1 Mbps, 10 ms wire: 500 B frames (4.32 ms each) put three on
    the wire at once, 200 B frames (1.92 ms) six.  The delivery ring
    grows to exactly that many handles, also when it grows from the
    middle (a new handle goes in as the newest, just before the
    oldest), and a later burst reuses them instead of allocating."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=1e6)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    net.link("a", "b", delay=0.010)
    net.compute_routes()
    iface = net.nic_of("a").interface
    bound = DatagramSocket(kernel, net.nic_of("b"), port=7)

    def burst(count, nbytes):
        for _ in range(count):
            iface.send(datagram(nbytes=nbytes))
        kernel.run()
        ring = list(iface._rx_ring)
        assert len({id(event) for event in ring}) == len(ring)
        assert all(event._kernel is None for event in ring)
        return ring

    assert len(burst(11, 500)) == 3
    assert iface._rx_next != 0  # the next growth starts mid-ring
    ring = burst(20, 200)
    assert len(ring) == 6
    assert burst(20, 200) == ring  # the same six handles, reused
    assert bound.received == 51


# ----------------------------------------------------------------------
# Egress resolution: what the flattened frames must keep
# ----------------------------------------------------------------------
def test_unattached_nic_send_raises():
    kernel = Kernel()
    nic = Nic(kernel, Host(kernel, "lonely"))
    with pytest.raises(RuntimeError, match="not attached to a link"):
        nic.send(datagram())
    with pytest.raises(RuntimeError, match="not attached to a link"):
        nic.egress_for("b")


def test_unroutable_packet_is_booked_and_reported_once():
    kernel = Kernel()
    net, router, _, _ = two_hop_rig(kernel)
    sink = RingBufferSink(capacity=None)
    Tracer(sinks=[sink], layers=["net"]).attach(kernel)
    seen = []
    router.on_drop = lambda packet, reason: seen.append((packet, reason))
    packet = datagram(dst="nowhere")
    net.nic_of("a").send(packet)
    kernel.run()
    assert seen == [(packet, "unroutable")]
    assert router.drops_by_reason == {"unroutable": 1}
    assert router.drops_by_flow == {packet.flow_id: 1}
    assert router.dropped == router.unroutable == 1
    assert kinds_at(sink, "route.forward", "router", "r") == 0


def test_forward_skips_rsvp_interception_and_receive_does_not():
    """``Router.forward`` is the RSVP agent's way back into the data
    path: it must not hand the packet to the agent again."""
    kernel = Kernel()
    net, router, _, _ = two_hop_rig(kernel)
    sink = RingBufferSink(capacity=None)
    Tracer(sinks=[sink], layers=["net"]).attach(kernel)
    handed = []

    def forwarded():
        return kinds_at(sink, "route.forward", "router", "r")

    class Agent:
        def handle_transit(self, packet, ingress):
            handed.append((packet, ingress))

    router.rsvp_agent = Agent()
    signaling = Packet("a", "b", 0, 0, Protocol.RSVP, payload_bytes=64)
    ingress = router.routes["a"]
    router.receive(signaling, ingress)
    assert handed == [(signaling, ingress)] and forwarded() == 0
    router.forward(signaling)
    assert len(handed) == 1 and forwarded() == 1
    router.receive(datagram(), ingress)  # data is never intercepted
    assert len(handed) == 1 and forwarded() == 2
