"""Unit tests for the application actors."""

import pytest

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import FifoQueue, Network
from repro.orb import Orb
from repro.orb.cdr import OpaquePayload
from repro.media import FrameFilter, MpegStream
from repro.media.filtering import FilterLevel
from repro.avstreams.endpoints import FlowConsumer, FlowProducer
from repro.experiments.actors import (
    AtrServant,
    AvVideoReceiver,
    AvVideoSender,
    GiopVideoSender,
    VideoDistributor,
    VideoReceiverServant,
)


def two_hosts(kernel, bandwidth=100e6, bottleneck_qdisc=None):
    net = Network(kernel, default_bandwidth_bps=bandwidth)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    net.link("a", router)
    net.link(router, "b", qdisc_a=bottleneck_qdisc)
    net.compute_routes()
    return net


# ----------------------------------------------------------------------
# GIOP video path
# ----------------------------------------------------------------------
def test_giop_sender_paces_at_frame_rate():
    kernel = Kernel()
    net = two_hosts(kernel)
    sender_orb = Orb(kernel, net.host("a"), net)
    receiver_orb = Orb(kernel, net.host("b"), net)
    servant = VideoReceiverServant(kernel)
    poa = receiver_orb.create_poa("video")
    objref = poa.activate_object(servant)
    thread = net.host("a").spawn_thread("app", priority=10)
    sender = GiopVideoSender(
        kernel, sender_orb, objref, MpegStream("s"), thread)
    sender.start()
    kernel.run(until=2.0)
    sender.stop()
    assert sender.frames_sent == pytest.approx(60, abs=2)
    assert servant.frames == pytest.approx(60, abs=3)
    assert servant.latency.stats().mean < 0.05


def test_giop_sender_skips_when_transport_drowns():
    kernel = Kernel()
    # 200 kbps bottleneck cannot carry 1.2 Mbps of video.
    net = two_hosts(kernel, bandwidth=2e5,
                    bottleneck_qdisc=FifoQueue(capacity=20))
    sender_orb = Orb(kernel, net.host("a"), net)
    receiver_orb = Orb(kernel, net.host("b"), net)
    poa = receiver_orb.create_poa("video")
    objref = poa.activate_object(VideoReceiverServant(kernel))
    thread = net.host("a").spawn_thread("app", priority=10)
    sender = GiopVideoSender(
        kernel, sender_orb, objref, MpegStream("s"), thread)
    sender.start()
    kernel.run(until=5.0)
    sender.stop()
    assert sender.frames_skipped > 0
    assert sender.frames_sent + sender.frames_skipped <= 5 * 30 + 2


# ----------------------------------------------------------------------
# A/V video path
# ----------------------------------------------------------------------
def av_pair(kernel, net):
    consumer = FlowConsumer(kernel, net.nic_of("b"), "flow")
    producer = FlowProducer(kernel, net.nic_of("a"), "flow", "b",
                            consumer.port)
    return producer, consumer


def test_av_sender_filter_reduces_sent_frames():
    kernel = Kernel()
    net = two_hosts(kernel)
    producer, consumer = av_pair(kernel, net)
    frame_filter = FrameFilter(FilterLevel.LOW)  # I frames only
    sender = AvVideoSender(kernel, producer, MpegStream("s"),
                           frame_filter=frame_filter)
    receiver = AvVideoReceiver(kernel, consumer, sender=sender)
    sender.start()
    kernel.run(until=5.0)
    sender.stop()
    assert sender.frames_generated == pytest.approx(150, abs=2)
    assert sender.delivery.sent_count() == pytest.approx(10, abs=1)  # 2 fps
    assert set(receiver.frame_types) == {"I"}


def test_av_receiver_feeds_sender_delivery_recorder():
    kernel = Kernel()
    net = two_hosts(kernel)
    producer, consumer = av_pair(kernel, net)
    sender = AvVideoSender(kernel, producer, MpegStream("s"))
    receiver = AvVideoReceiver(kernel, consumer, sender=sender)
    sender.start()
    kernel.run(until=2.0)
    sender.stop()
    assert sender.delivery.received_count() == pytest.approx(
        sender.delivery.sent_count(), abs=2)
    assert receiver.delivery.latency.stats().mean > 0


def test_av_sender_restart_keeps_the_frame_rate():
    """``stop(); start()`` leaves one frame clock running, not two (the
    generator sender's parked loop woke beside the new one: 59 fps)."""
    kernel = Kernel()
    net = two_hosts(kernel)
    producer, consumer = av_pair(kernel, net)
    sender = AvVideoSender(kernel, producer, MpegStream("s"))
    AvVideoReceiver(kernel, consumer, sender=sender)
    sender.start()
    kernel.run(until=1.01)
    sender.stop()
    sender.start()
    kernel.run(until=2.01)
    sender.stop()
    assert sender.delivery.sent_count(0.0, 1.01) == pytest.approx(30, abs=1)
    assert sender.delivery.sent_count(1.01, 2.01) == pytest.approx(30, abs=1)
    events = kernel.events_executed
    kernel.run(until=3.0)  # a stopped sender leaves nothing ticking
    assert sender.delivery.sent_count(2.01, 3.0) == 0
    assert sender.frames_generated == pytest.approx(61, abs=2)
    assert kernel.events_executed - events < 40  # the last frame's packets


def test_av_sender_sheds_frames_when_the_encoder_drowns():
    """With a thread and an encode cost above the frame interval the
    backlog cap drops frames at the source, and a deadline-aware
    receiver counts what still arrives on time."""
    kernel = Kernel()
    net = two_hosts(kernel)
    producer, consumer = av_pair(kernel, net)
    thread = net.host("a").spawn_thread("enc", priority=10)
    sender = AvVideoSender(kernel, producer, MpegStream("s"),
                           thread=thread, encode_cost=0.05)
    receiver = AvVideoReceiver(kernel, consumer, sender, deadline=0.25)
    sender.start()
    kernel.run(until=2.0)
    sender.stop()
    delivered = sender.delivery.received_count()
    assert sender.frames_skipped > 0
    assert delivered == pytest.approx(2.0 / 0.05, abs=2)  # encoder-bound
    assert sender.frames_generated == pytest.approx(60, abs=1)
    assert receiver.latency.count == delivered
    assert 0 < receiver.frames_on_time <= delivered


def test_distributor_fans_out_with_per_output_filters():
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=100e6)
    for name in ("src", "mid", "out1", "out2"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    for name in ("src", "mid", "out1", "out2"):
        net.link(name, router)
    net.compute_routes()

    sink1 = FlowConsumer(kernel, net.nic_of("out1"), "f1")
    sink2 = FlowConsumer(kernel, net.nic_of("out2"), "f2")
    into_mid = FlowConsumer(kernel, net.nic_of("mid"), "fin")
    src_producer = FlowProducer(kernel, net.nic_of("src"), "fin", "mid",
                                into_mid.port)
    out1 = FlowProducer(kernel, net.nic_of("mid"), "f1", "out1", sink1.port)
    out2 = FlowProducer(kernel, net.nic_of("mid"), "f2", "out2", sink2.port)
    distributor = VideoDistributor(kernel, into_mid)
    distributor.add_output(out1)  # full rate
    distributor.add_output(out2, FrameFilter(FilterLevel.MEDIUM))  # 10 fps

    stream = MpegStream("s")

    def feed():
        producer_frames = 150
        for i in range(producer_frames):
            kernel.schedule_at(i / 30.0, src_producer.send_frame,
                               stream.next_frame(i / 30.0))

    feed()
    kernel.run()
    assert distributor.frames_in == 150
    assert sink1.frames_received == 150
    assert sink2.frames_received == 50  # B frames filtered at the tier


# ----------------------------------------------------------------------
# ATR servant
# ----------------------------------------------------------------------
def test_atr_servant_cost_table_and_timings():
    kernel = Kernel()
    net = two_hosts(kernel)
    server_orb = Orb(kernel, net.host("b"), net)
    client_orb = Orb(kernel, net.host("a"), net)
    servant = AtrServant(kernel, algorithm_costs={"OnlyOne": 0.02})
    poa = server_orb.create_poa("atr")
    objref = poa.activate_object(servant)
    from repro.experiments.actors import ATR
    from repro.orb.core import raise_if_error
    from repro.sim import Process

    results = []

    def client():
        stub = ATR.stub_class(client_orb, objref)
        for _ in range(3):
            reply = yield stub.detect(OpaquePayload("img", nbytes=1000))
            results.append(raise_if_error(reply))

    Process(kernel, client(), name="c")
    kernel.run()
    assert results == [1, 2, 3]
    stats = servant.timings["OnlyOne"].stats()
    assert stats.count == 3
    assert stats.mean == pytest.approx(0.02, rel=1e-6)
