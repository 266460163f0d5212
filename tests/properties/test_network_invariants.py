"""Property tests: network substrate invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import (
    DatagramSocket,
    DiffServQueue,
    Dscp,
    FifoQueue,
    GuaranteedRateQueue,
    Network,
    Packet,
    Protocol,
    TokenBucket,
)
from repro.net.diffserv import classify

DSCPS = st.sampled_from([Dscp.BE, Dscp.EF, Dscp.AF11, Dscp.AF21,
                         Dscp.AF41, Dscp.CS2])


def make_packet(dscp=Dscp.BE, nbytes=500):
    return Packet(src="a", dst="b", src_port=1, dst_port=2,
                  protocol=Protocol.UDP, payload_bytes=nbytes, dscp=dscp)


# ----------------------------------------------------------------------
# Queue accounting invariants (all disciplines)
# ----------------------------------------------------------------------
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enq"), DSCPS),
        st.tuples(st.just("deq"), st.none()),
    ),
    max_size=120,
)


def check_accounting(queue, operations):
    for op, dscp in operations:
        if op == "enq":
            queue.enqueue(make_packet(dscp=dscp))
        else:
            queue.dequeue()
        assert len(queue) >= 0
        assert queue.enqueued == queue.dequeued + len(queue)
        assert queue.enqueued + queue.dropped >= queue.enqueued


@given(OPS)
def test_prop_fifo_accounting(operations):
    check_accounting(FifoQueue(capacity=30), operations)


@given(OPS)
def test_prop_diffserv_accounting(operations):
    check_accounting(DiffServQueue(band_capacity=15), operations)


@given(OPS)
def test_prop_guaranteed_rate_accounting(operations):
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel, band_capacity=15)
    queue.install_reservation("a:1->b:2", rate_bps=1e6, depth_bytes=5000)
    check_accounting(queue, operations)


@given(OPS)
def test_prop_diffserv_serves_best_band_first(operations):
    """Every dequeue returns a packet from the most-preferred non-empty
    band at that moment."""
    queue = DiffServQueue(band_capacity=15)
    contents = []  # mirror of what's inside
    for op, dscp in operations:
        if op == "enq":
            packet = make_packet(dscp=dscp)
            if queue.enqueue(packet):
                contents.append(packet)
        else:
            packet = queue.dequeue()
            if packet is None:
                assert not contents
            else:
                best = min(classify(p.dscp) for p in contents)
                assert classify(packet.dscp) == best
                contents.remove(packet)


# ----------------------------------------------------------------------
# GRQ drop accounting: every rejection is booked exactly once
# ----------------------------------------------------------------------
def test_grq_demotion_then_overflow_drops_exactly_once():
    """Regression: a packet that fails its token bucket, is demoted to
    its DiffServ band, and then overflows the band must appear once —
    not zero times, not twice — in the queue's drop books."""
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel, band_capacity=1)
    queue.install_reservation("a:1->b:2", rate_bps=8_000, depth_bytes=600)
    dropped = []
    queue.on_drop = dropped.append

    first, second, third = (make_packet(nbytes=500) for _ in range(3))
    assert queue.enqueue(first)       # conforms: 600 tokens cover 500 B
    assert queue.enqueue(second)      # 100 tokens left: demoted, band ok
    assert queue.demoted == 1
    assert not queue.enqueue(third)   # demoted again, band full: dropped

    assert dropped == [third]         # on_drop fired exactly once
    assert queue.dropped == 1
    assert queue.drops_by_flow == {"a:1->b:2": 1}
    assert len(queue) == queue.enqueued - queue.dequeued == 2


@given(OPS)
def test_prop_grq_on_drop_fires_exactly_once_per_rejection(operations):
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel, band_capacity=3)
    queue.install_reservation("a:1->b:2", rate_bps=8_000, depth_bytes=1500)
    drops = []
    queue.on_drop = drops.append
    rejected = []
    for op, dscp in operations:
        if op == "enq":
            packet = make_packet(dscp=dscp)
            if not queue.enqueue(packet):
                rejected.append(packet)
        else:
            queue.dequeue()
    assert drops == rejected
    assert queue.dropped == len(rejected)
    assert sum(queue.drops_by_flow.values()) == queue.dropped


# ----------------------------------------------------------------------
# Token bucket conformance bound
# ----------------------------------------------------------------------
@given(
    st.floats(min_value=1e4, max_value=1e7),     # rate
    st.integers(min_value=1000, max_value=50_000),  # depth
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=2.0),
                       st.integers(min_value=100, max_value=5000)),
             min_size=1, max_size=50),
)
@settings(max_examples=40, deadline=None)
def test_prop_token_bucket_conformance_bound(rate, depth, attempts):
    """Accepted bytes over [0, T] can never exceed rate*T/8 + depth."""
    kernel = Kernel()
    bucket = TokenBucket(kernel, rate_bps=rate, depth_bytes=depth)
    accepted = 0
    horizon = 0.0
    for at, nbytes in sorted(attempts):
        kernel.run(until=at)
        horizon = max(horizon, at)
        if bucket.try_consume(nbytes):
            accepted += nbytes
    bound = rate * horizon / 8.0 + depth
    assert accepted <= bound + 1e-6


@given(st.lists(st.integers(min_value=1, max_value=2000), max_size=40))
def test_prop_token_bucket_never_negative(consumes):
    kernel = Kernel()
    bucket = TokenBucket(kernel, rate_bps=1e5, depth_bytes=3000)
    for nbytes in consumes:
        bucket.try_consume(nbytes)
        assert bucket.tokens >= -1e-9


def test_token_bucket_pathological_rate_never_drifts():
    """Regression for the shared clamp policy: a non-representable rate
    accrued over thousands of tiny refills must keep the *stored* token
    count inside [0, depth] exactly, not just within float noise."""
    kernel = Kernel()
    bucket = TokenBucket(kernel, rate_bps=0.1 + 1e-7, depth_bytes=7)
    for step in range(1, 5001):
        kernel.run(until=step * 0.0101)
        bucket.try_consume(1)
        assert 0.0 <= bucket._tokens <= bucket.depth_bytes


def test_token_bucket_full_refill_saturates_at_depth():
    kernel = Kernel()
    bucket = TokenBucket(kernel, rate_bps=1e6, depth_bytes=1000)
    assert bucket.try_consume(600)
    kernel.run(until=100.0)  # a refill worth ~12.5 MB: must clamp
    assert bucket.tokens == bucket.depth_bytes
    assert bucket._tokens == bucket.depth_bytes


# ----------------------------------------------------------------------
# End-to-end conservation
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=60),   # packets
    st.integers(min_value=100, max_value=8000),  # payload size
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_prop_delivered_never_exceeds_sent(count, nbytes, seed):
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=1e6)
    for name in ("a", "b", "noise"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    net.link("a", router)
    net.link("noise", router)
    net.link(router, "b", qdisc_a=FifoQueue(capacity=10))
    net.compute_routes()
    received = []
    DatagramSocket(kernel, net.nic_of("b"), port=7,
                   on_receive=lambda payload, pkt: received.append(payload))
    sender = DatagramSocket(kernel, net.nic_of("a"))
    rng = random.Random(seed)
    for i in range(count):
        # Strictly increasing send times (jitter below the spacing), so
        # the in-order assertion below is well-posed.
        at = i * 0.01 + rng.random() * 0.005
        kernel.schedule(at, sender.send_to, "b", 7, i, nbytes)
    noise = DatagramSocket(kernel, net.nic_of("noise"))
    for _ in range(count):
        kernel.schedule(rng.random(), noise.send_to, "b", 9, None, 1000)
    kernel.run()
    assert len(received) <= count
    assert sorted(set(received)) == sorted(received)  # no duplication
    # FIFO path: order preserved among delivered packets.
    assert received == sorted(received)


# ----------------------------------------------------------------------
# Many-flow conservation: every packet is accounted for exactly once
# ----------------------------------------------------------------------
STREAM_PLANS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=25),      # packets in stream
        st.floats(min_value=0.002, max_value=0.05),  # send spacing (s)
        st.integers(min_value=200, max_value=4000),  # payload bytes
    ),
    min_size=1, max_size=8,
)


@given(
    STREAM_PLANS,
    st.integers(min_value=2, max_value=12),  # bottleneck queue capacity
    st.floats(min_value=0.05, max_value=0.6),  # observation horizon
)
@settings(max_examples=25, deadline=None)
def test_prop_many_flow_conservation(plans, capacity, horizon):
    """N concurrent streams through a shared bottleneck: at any horizon
    every sent packet is exactly one of delivered, dropped-with-reason,
    or still in flight — and once the network drains, delivered plus
    dropped partition the sent set exactly (no duplication, no loss
    without a drop record)."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=2e6)
    for name in ("a", "b", "dst"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    drops = []  # (packet identity, queue that dropped it)

    def hooked(label):
        queue = FifoQueue(capacity=capacity)
        queue.on_drop = lambda pkt, label=label: drops.append(
            (pkt.payload, label))
        return queue

    net.link("a", router, qdisc_a=hooked("a->r"))
    net.link("b", router, qdisc_a=hooked("b->r"))
    net.link(router, "dst", qdisc_a=hooked("r->dst"))
    net.compute_routes()

    delivered = []
    sent = []
    for index, (count, spacing, nbytes) in enumerate(plans):
        port = 100 + index
        DatagramSocket(
            kernel, net.nic_of("dst"), port=port,
            on_receive=lambda payload, pkt: delivered.append(payload))
        sender = DatagramSocket(
            kernel, net.nic_of("a" if index % 2 == 0 else "b"))
        for seq in range(count):
            identity = (index, seq)
            sent.append(identity)
            kernel.schedule(seq * spacing, sender.send_to,
                            "dst", port, identity, nbytes)

    def check_books(require_drained):
        assert len(set(delivered)) == len(delivered)  # no duplication
        dropped = [identity for identity, _label in drops]
        assert len(set(dropped)) == len(dropped)  # dropped at most once
        assert set(delivered).isdisjoint(dropped)
        accounted = set(delivered) | set(dropped)
        assert accounted <= set(sent)
        in_flight = set(sent) - accounted
        if require_drained:
            assert not in_flight  # drained: exact partition
        for _identity, label in drops:
            assert label in ("a->r", "b->r", "r->dst")

    kernel.run(until=horizon)
    check_books(require_drained=False)
    kernel.run()  # drain every queued and in-flight packet
    check_books(require_drained=True)
