"""Property tests: the reliable stream's exactly-once, in-order promise
must hold under arbitrary loss patterns."""

import random

import pytest
from hypothesis import given, settings, strategies as st

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


def lossy_rig(kernel, loss, seed):
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    net.link("a", router, qdisc_a=LossyQueue(loss, seed))
    net.link(router, "b", qdisc_a=LossyQueue(loss, seed + 1))
    net.compute_routes()
    return net


@given(
    st.lists(st.integers(min_value=0, max_value=20_000),
             min_size=1, max_size=12),
    st.floats(min_value=0.0, max_value=0.3),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_prop_exactly_once_in_order_under_loss(sizes, loss, seed):
    """Whatever the loss rate (< 1) and message mix, every message is
    delivered exactly once, in order, with its full size accounted."""
    kernel = Kernel()
    net = lossy_rig(kernel, loss, seed)
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
    """As long as the path delivers *some* packets, the retry cap must
    never fire."""
    kernel = Kernel()
    net = lossy_rig(kernel, loss, seed)
    StreamListener(kernel, net.nic_of("b"), port=2809)
    conn = StreamConnection.connect(kernel, net.nic_of("a"), "b", 2809)
    for i in range(5):
        kernel.schedule(i * 0.1, conn.send_message, i, 3000)
    kernel.run(until=600.0)
    assert not conn.closed
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
