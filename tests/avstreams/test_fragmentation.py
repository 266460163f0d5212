"""Tests for frame fragmentation and reassembly on A/V flows."""

import pytest

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import FifoQueue, Network
from repro.avstreams.endpoints import (
    FRAGMENT_BYTES,
    FlowConsumer,
    FlowProducer,
)


class FakeFrame:
    def __init__(self, seq, size_bytes):
        self.sequence = seq
        self.size_bytes = size_bytes


def rig(kernel, qdisc=None):
    net = Network(kernel, default_bandwidth_bps=10e6)
    a, b = Host(kernel, "a"), Host(kernel, "b")
    net.attach_host(a)
    net.attach_host(b)
    net.link(a, b, qdisc_a=qdisc)
    net.compute_routes()
    return net


def test_small_frame_is_single_fragment():
    kernel = Kernel()
    net = rig(kernel)
    got = []
    consumer = FlowConsumer(kernel, net.nic_of("b"), "f",
                            on_frame=lambda frame, lat: got.append(frame))
    producer = FlowProducer(kernel, net.nic_of("a"), "f", "b", consumer.port)
    producer.send_frame(FakeFrame(1, 800))
    kernel.run()
    assert producer.fragments_sent == 1
    assert [f.sequence for f in got] == [1]


def test_negative_frame_size_is_refused_and_zero_still_sends():
    kernel = Kernel()
    net = rig(kernel)
    got = []
    consumer = FlowConsumer(kernel, net.nic_of("b"), "f",
                            on_frame=lambda frame, lat: got.append(frame))
    producer = FlowProducer(kernel, net.nic_of("a"), "f", "b", consumer.port)
    with pytest.raises(ValueError):
        producer.send_frame(FakeFrame(1, -900))
    assert producer.frames_sent == 0 and producer.fragments_sent == 0
    producer.send_frame(FakeFrame(2, 0))
    kernel.run()
    assert producer.fragments_sent == 1
    assert [f.sequence for f in got] == [2]


def test_large_frame_fragments_and_reassembles():
    kernel = Kernel()
    net = rig(kernel)
    got = []
    consumer = FlowConsumer(kernel, net.nic_of("b"), "f",
                            on_frame=lambda frame, lat: got.append(frame))
    producer = FlowProducer(kernel, net.nic_of("a"), "f", "b", consumer.port)
    frame = FakeFrame(1, 15_000)
    producer.send_frame(frame)
    kernel.run()
    expected_fragments = -(-15_000 // FRAGMENT_BYTES)
    assert producer.fragments_sent == expected_fragments
    assert consumer.fragments_received == expected_fragments
    assert got == [frame]
    assert consumer.frames_received == 1


def test_lost_fragment_kills_whole_frame():
    kernel = Kernel()
    # Egress queue of 5 packets: an 11-fragment frame always loses some.
    net = rig(kernel, qdisc=FifoQueue(capacity=5))
    got = []
    consumer = FlowConsumer(kernel, net.nic_of("b"), "f",
                            on_frame=lambda frame, lat: got.append(frame))
    producer = FlowProducer(kernel, net.nic_of("a"), "f", "b", consumer.port)
    accepted = producer.send_frame(FakeFrame(1, 15_000))
    kernel.run()
    assert not accepted  # producer saw the first-hop drop
    assert got == []  # incomplete frame never delivered
    assert consumer.fragments_received > 0  # some fragments did arrive


def test_interleaved_frames_reassemble_independently():
    kernel = Kernel()
    net = rig(kernel)
    got = []
    consumer = FlowConsumer(kernel, net.nic_of("b"), "f",
                            on_frame=lambda frame, lat: got.append(frame.sequence))
    producer = FlowProducer(kernel, net.nic_of("a"), "f", "b", consumer.port)
    for seq in range(5):
        producer.send_frame(FakeFrame(seq, 4000))
    kernel.run()
    assert got == [0, 1, 2, 3, 4]


def test_reassembly_slots_evict_stale_partials():
    kernel = Kernel()
    net = rig(kernel, qdisc=FifoQueue(capacity=3))
    consumer = FlowConsumer(kernel, net.nic_of("b"), "f")
    producer = FlowProducer(kernel, net.nic_of("a"), "f", "b", consumer.port)

    def burst(_unused=None):
        producer.send_frame(FakeFrame(0, 15_000))  # always incomplete

    for i in range(consumer.REASSEMBLY_SLOTS + 10):
        kernel.schedule(i * 0.1, burst)
    kernel.run()
    assert consumer.frames_incomplete >= 10
    assert len(consumer._partial) <= consumer.REASSEMBLY_SLOTS


def test_latency_measured_to_last_fragment():
    kernel = Kernel()
    net = rig(kernel)
    latencies = []
    consumer = FlowConsumer(kernel, net.nic_of("b"), "f",
                            on_frame=lambda frame, lat: latencies.append(lat))
    producer = FlowProducer(kernel, net.nic_of("a"), "f", "b", consumer.port)
    producer.send_frame(FakeFrame(1, 15_000))
    # Send the small frame once the wire is quiet again.
    kernel.schedule(1.0, producer.send_frame, FakeFrame(2, 1000))
    kernel.run()
    # The 15 kB frame takes ~11 x 1.2 ms of serialization at 10 Mbps;
    # the small one is a single packet.
    assert latencies[0] == pytest.approx(0.0135, abs=0.003)
    assert latencies[0] > latencies[1] * 5
