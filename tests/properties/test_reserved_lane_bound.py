"""Property test: the reserved lane's delay bound (RFC 2212), exactly.

One ``Interface`` of rate ``C`` bits/s egresses through a
``GuaranteedRateQueue`` that polices reserved flows ``i`` with token
buckets of rate ``r_i`` bits/s and depth ``b_i`` bytes, ``sum r_i <=
0.9 C``.  Each reserved flow offers Poisson traffic at 0.5 to 3 times its
reservation, so policing is busy; best-effort and EF cross traffic
saturate the port.  A conforming packet (one that joined the reserved
lane) must start transmission, its ``hop.dequeue``, within

    (sum b_i + L_max) * 8 / C

seconds of its ``hop.enqueue``, ``L_max`` the largest packet any class
sent: the reserved lane is served strictly first, so a conforming
packet waits for at most one frame already on the wire (non-preemptive)
plus the conforming bytes that arrived ahead of it in the lane's busy
period, which the buckets cap at ``sum b_i`` plus what the reserved
rates refill in that period (DESIGN §13, "The reserved lane's delay
bound").  The tolerance is 0: the bound keeps at least the packet's own
transmission time in hand.

The mutants it exists for (scratch copies): ``_order_lanes`` putting the
EF band ahead of the reserved lane turns it red, and so does a
``TokenBucket._refill`` that leaves out the ``/ 8.0`` (tokens accrue
eight times too fast, so a flow's conforming rate is no longer ``r_i``).
"""

from itertools import count

from hypothesis import given, settings, strategies as st

from repro.net import Dscp, GuaranteedRateQueue, Network, Packet, Protocol
from repro.net.packet import HEADER_BYTES
from repro.obs import TraceSink, Tracer
from repro.oskernel import Host
from repro.sim import Kernel
from repro.sim.rng import RngRegistry

#: Port rate (the paper's 10 Mbps Ethernet) and simulated span.
BANDWIDTH_BPS = 10e6
HORIZON_S = 0.25
#: Payload bytes a packet may carry (a 1500-byte MTU frame at most).
PAYLOAD = st.integers(min_value=60, max_value=1460)


@st.composite
def port_loads(draw):
    """(flows, cross, seed): reserved flows as ``(rate_bps, depth_bytes,
    payload_bytes, offered_factor)``, cross traffic as ``(dscp, load,
    payload_bytes)``, and the seed of the arrival streams."""
    shares = [draw(st.floats(min_value=0.02, max_value=0.6))
              for _ in range(draw(st.integers(1, 4)))]
    scale = min(1.0, 0.9 / sum(shares))
    flows = []
    for share in shares:
        payload = draw(PAYLOAD)
        depth = (payload + HEADER_BYTES) * draw(st.integers(1, 6)) \
            + draw(st.integers(0, 1000))
        flows.append((share * scale * BANDWIDTH_BPS, depth, payload,
                      draw(st.floats(min_value=0.5, max_value=3.0))))
    cross = [(Dscp.EF, draw(st.floats(min_value=0.05, max_value=0.5)),
              draw(PAYLOAD)),
             (Dscp.BE, draw(st.floats(min_value=0.3, max_value=1.0)),
              draw(PAYLOAD))]
    return flows, cross, draw(st.integers(0, 2**32 - 1))


class StartSink(TraceSink):
    """Each packet's ``hop.enqueue`` and ``hop.dequeue`` times."""

    def __init__(self):
        self.enqueued = {}
        self.started = {}

    def emit(self, record):
        if record.kind == "hop.enqueue":
            self.enqueued[record.fields["packet"]] = record.time
        elif record.kind == "hop.dequeue":
            self.started[record.fields["packet"]] = record.time


def run_port(flows, cross, seed):
    """Run one loaded port; return (conforming packet ids, sink,
    sum of depths in bytes, largest packet in bytes)."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=BANDWIDTH_BPS)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    queue = GuaranteedRateQueue(kernel, band_capacity=50,
                                reserved_capacity=10**6)
    net.link("a", "b", qdisc_a=queue)
    net.compute_routes()
    iface = net.nic_of("a").interface
    sink = StartSink()
    Tracer(sinks=[sink], layers=["net"]).attach(kernel)

    # The lane a packet joined is in no record: watch the queue's book.
    conforming = set()
    police = queue.enqueue

    def enqueue(packet):
        before = queue.conformed
        accepted = police(packet)
        if queue.conformed != before:
            conforming.add(packet.packet_id)
        return accepted

    queue.enqueue = enqueue

    rngs = RngRegistry(seed)
    ids = count(1)

    def source(name, dscp, payload, bits_per_s):
        flow_id = f"{name}:{dscp._name_}"
        rng = rngs.stream(name)
        rate = bits_per_s / ((payload + HEADER_BYTES) * 8)

        def arrive():
            iface.send(Packet("a", "b", 1, 9, Protocol.UDP,
                              payload_bytes=payload, dscp=dscp,
                              flow_id=flow_id, packet_id=next(ids)))
            gap = rng.expovariate(rate)
            if kernel.now + gap < HORIZON_S:
                kernel.schedule(gap, arrive)
        kernel.schedule(rng.expovariate(rate), arrive)
        return flow_id

    for index, (rate_bps, depth, payload, factor) in enumerate(flows):
        flow_id = source(f"reserved{index}", Dscp.AF11, payload,
                         factor * rate_bps)
        queue.install_reservation(flow_id, rate_bps, depth)
    for dscp, load, payload in cross:
        source(f"cross.{dscp._name_}", dscp, payload, load * BANDWIDTH_BPS)
    kernel.run()
    payloads = ([payload for _, _, payload, _ in flows]
                + [payload for _, _, payload in cross])
    return (conforming, sink, sum(depth for _, depth, _, _ in flows),
            max(payloads) + HEADER_BYTES)


@given(port_loads())
@settings(max_examples=100, deadline=None)
def test_prop_conforming_packets_start_within_the_rfc2212_bound(case):
    flows, cross, seed = case
    conforming, sink, depths, largest = run_port(flows, cross, seed)
    assert conforming  # the bucket starts full: the first packet conforms
    bound = (depths + largest) * 8 / BANDWIDTH_BPS
    late = {packet: sink.started[packet] - sink.enqueued[packet]
            for packet in conforming
            if sink.started[packet] - sink.enqueued[packet] > bound}
    assert not late, (
        f"{len(late)} of {len(conforming)} conforming packets started "
        f"later than {bound:.6g} s after arrival, worst "
        f"{max(late.values()):.6g} s")


def test_the_cross_traffic_holds_the_port_busy():
    """The bound is not met vacuously: with one small reservation under
    saturating cross traffic, conforming packets do wait behind frames
    already on the wire, and best-effort packets wait longer than the
    bound."""
    flows = [(1e6, 3000, 500, 2.0)]
    cross = [(Dscp.EF, 0.4, 1460), (Dscp.BE, 0.9, 1460)]
    conforming, sink, depths, largest = run_port(flows, cross, seed=1)
    bound = (depths + largest) * 8 / BANDWIDTH_BPS
    waits = {packet: sink.started[packet] - sink.enqueued[packet]
             for packet in sink.started}
    assert max(waits[packet] for packet in conforming) > 0
    assert max(waits[packet] for packet in conforming) <= bound
    assert max(waits.values()) > bound
