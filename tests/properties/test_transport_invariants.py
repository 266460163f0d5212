"""Property tests: the reliable stream's exactly-once, in-order promise
under arbitrary loss patterns.

The stream gives up by design after ``max_consecutive_rtos + 1``
consecutive timeouts, and a seeded loss pattern can drop every one of
those transmissions.  So the law is stated both ways: a connection that
stays open delivers every message exactly once, in order, at full size;
one that closes has delivered an exact in-order prefix, and the last
``max_consecutive_rtos + 1`` transmissions of its base segment were all
dropped.  Only data crosses the lossy queues: the ACK path is lossless.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import Network, StreamConnection, StreamListener
from repro.net.packet import Packet
from repro.net.queues import QueueDiscipline, FifoQueue


class LossyQueue(QueueDiscipline):
    """A FIFO that drops each arrival with probability ``loss``."""

    def __init__(self, loss: float, seed: int, capacity: int = 200) -> None:
        super().__init__(name="lossy")
        self.loss = loss
        self.rng = random.Random(seed)
        self._inner = FifoQueue(capacity=capacity)

    def enqueue(self, packet: Packet) -> bool:
        if self.rng.random() < self.loss:
            return self._drop(packet)
        if self._inner.enqueue(packet):
            self.enqueued += 1
            return True
        return self._drop(packet)

    def dequeue(self):
        packet = self._inner.dequeue()
        if packet is not None:
            self.dequeued += 1
        return packet

    def __len__(self):
        return len(self._inner)


class LossLog:
    """Every data transmission in order (as the first lossy queue saw
    it) and the ids of the packets either lossy queue dropped."""

    def __init__(self) -> None:
        self.sent = []
        self.dropped = set()

    def last_transmissions_all_dropped(self, conn) -> bool:
        """The give-up law: the base segment's last
        ``max_consecutive_rtos + 1`` transmissions never arrived."""
        base = conn._snd_una
        sent = [packet.packet_id for packet in self.sent
                if packet.payload.seq == base]
        last = sent[-(conn.max_consecutive_rtos + 1):]
        return (len(last) == conn.max_consecutive_rtos + 1
                and self.dropped.issuperset(last))


def lossy_rig(kernel, loss, seed):
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    first, second = LossyQueue(loss, seed), LossyQueue(loss, seed + 1)
    net.link("a", router, qdisc_a=first)
    net.link(router, "b", qdisc_a=second)
    net.compute_routes()
    log = LossLog()
    enqueue = first.enqueue

    def logged(packet):
        log.sent.append(packet)
        return enqueue(packet)

    first.enqueue = logged
    first.on_drop = second.on_drop = (
        lambda packet: log.dropped.add(packet.packet_id))
    return net, log


@given(
    st.lists(st.integers(min_value=0, max_value=20_000),
             min_size=1, max_size=12),
    st.floats(min_value=0.0, max_value=0.3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
# Every transmission of seq 21 dropped: the original, a fast retransmit
# and 12 RTO retransmits, so the stream gives up as designed.
@example(sizes=[0, 0, 0, 3001, 10501, 10501], loss=0.21875, seed=1023484)
def test_prop_exactly_once_in_order_under_loss(sizes, loss, seed):
    """Whatever the loss rate (< 1) and message mix, every message is
    delivered exactly once, in order, with its full size accounted;
    or the stream gave up on a base segment the path dropped every
    time, after delivering an exact in-order prefix."""
    kernel = Kernel()
    net, log = lossy_rig(kernel, loss, seed)
    delivered = []
    StreamListener(
        kernel, net.nic_of("b"), port=2809,
        on_message=lambda payload, meta: delivered.append((payload, meta)),
    )
    conn = StreamConnection.connect(kernel, net.nic_of("a"), "b", 2809)
    for index, size in enumerate(sizes):
        kernel.schedule(index * 0.01, conn.send_message, index, size)
    kernel.run(until=600.0)
    payloads = [p for p, _ in delivered]
    if conn.closed:
        assert payloads == list(range(len(payloads))), payloads
        assert log.last_transmissions_all_dropped(conn)
    else:
        assert payloads == list(range(len(sizes))), (
            f"loss={loss}: got {payloads}"
        )
    for (payload, meta), size in zip(delivered, sizes):
        assert meta.size_bytes == size
        assert meta.latency >= 0


@given(st.floats(min_value=0.0, max_value=0.25),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_prop_no_spurious_connection_death(loss, seed):
    """As long as the path delivers *some* packets, the retry cap fires
    only on a base segment whose last ``max_consecutive_rtos + 1``
    transmissions were all dropped."""
    kernel = Kernel()
    net, log = lossy_rig(kernel, loss, seed)
    StreamListener(kernel, net.nic_of("b"), port=2809)
    conn = StreamConnection.connect(kernel, net.nic_of("a"), "b", 2809)
    for i in range(5):
        kernel.schedule(i * 0.1, conn.send_message, i, 3000)
    kernel.run(until=600.0)
    if conn.closed:
        assert log.last_transmissions_all_dropped(conn)
    else:
        assert conn.outstanding == 0


@given(st.integers(min_value=1, max_value=300_000))
@settings(max_examples=20, deadline=None)
def test_prop_any_message_size_delivers_on_clean_path(size):
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=100e6)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    net.link("a", "b")
    net.compute_routes()
    got = []
    StreamListener(kernel, net.nic_of("b"), port=2809,
                   on_message=lambda payload, meta: got.append(meta))
    conn = StreamConnection.connect(kernel, net.nic_of("a"), "b", 2809)
    conn.send_message("m", size)
    kernel.run(until=120.0)
    assert len(got) == 1
    assert got[0].size_bytes == size
