"""Differential test: the tick-driven video sender against the old
generator one.

``AvVideoSender`` used to be a generator :class:`~repro.sim.process.Process`
(``send; yield interval``) and the capacity farm kept a second,
:class:`~repro.sim.coalesce.PeriodicTicker`-driven sender.  They are
now one tick-driven class.  The old generator body is kept here as the
oracle: over drawn bitrates, filter levels, start offsets and run
lengths both must execute the same number of kernel events, book the
same sent / received time series and put packets with the same creation
times on the wire.

Both cost one kernel event at start and one per frame; what the kernel
could still tell apart is *when* the next frame's event draws its
tie-breaking ``seq``.  Both draw it after the frame's send, and the
``probes`` below pin that: every send schedules a probe for exactly one
frame interval later, which ties with the next frame's event and must
run before it.
"""

from hypothesis import given, settings, strategies as st

from repro.sim import Kernel, Process
from repro.sim.coalesce import PeriodicTicker
from repro.oskernel import Host
from repro.net import Network
from repro.net.queues import GuaranteedRateQueue
from repro.net.traffic import CbrTrafficSource
from repro.media import FrameFilter, MpegStream
from repro.media.filtering import FilterLevel
from repro.avstreams.endpoints import FlowConsumer, FlowProducer
from repro.core.metrics import DeliveryRecorder
from repro.experiments.actors import AvVideoReceiver, AvVideoSender


# ----------------------------------------------------------------------
# The oracle: the parent commit's generator sender
# ----------------------------------------------------------------------
class GeneratorVideoSender:
    def __init__(self, kernel, producer, stream, frame_filter=None):
        self.kernel = kernel
        self.producer = producer
        self.stream = stream
        self.frame_filter = frame_filter
        self.delivery = DeliveryRecorder(stream.name)
        self.frames_generated = 0
        self._running = False

    def start(self):
        if self._running:
            return
        self._running = True
        Process(self.kernel, self._run(), name=f"avsender.{self.stream.name}")

    def stop(self):
        self._running = False

    def _run(self):
        interval = self.stream.frame_interval
        while self._running:
            frame = self.stream.next_frame(self.kernel.now)
            self.frames_generated += 1
            if self.frame_filter is None or self.frame_filter.accept(frame):
                self.producer.send_frame(frame)
                self.delivery.record_sent(self.kernel.now)
            yield interval


# ----------------------------------------------------------------------
# One small congested world, run with either sender
# ----------------------------------------------------------------------
def run_world(make_sender, bitrate_bps, level, start_at, duration,
              cross_bps):
    """``a -> r -> b`` over a 4 Mbps bottleneck with CBR cross traffic
    from ``x``; returns everything the kernel and the wire saw."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=100e6)
    for name in ("a", "b", "x"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    net.link("a", router)
    net.link("x", router)
    net.link(router, "b", bandwidth_bps=4e6,
             qdisc_a=GuaranteedRateQueue(kernel, 30, name="bottleneck"))
    net.compute_routes()

    consumer = FlowConsumer(kernel, net.nic_of("b"), "flow")
    producer = FlowProducer(kernel, net.nic_of("a"), "flow", "b",
                            consumer.port)
    stream = MpegStream("s", bitrate_bps=bitrate_bps)
    frame_filter = None if level is None else FrameFilter(level)
    sender = make_sender(kernel, producer, stream, frame_filter)
    receiver = AvVideoReceiver(kernel, consumer, sender)

    created = []
    nic = net.nic_of("a")
    wire_send = nic.send

    def tapped_send(packet):
        created.append(packet.created_at)
        return wire_send(packet)

    nic.send = tapped_send

    probes = []
    send_frame = producer.send_frame

    def probed_send_frame(frame):
        kernel.schedule(stream.frame_interval, lambda: probes.append(
            (kernel.now, sender.frames_generated)))
        return send_frame(frame)

    producer.send_frame = probed_send_frame

    if cross_bps:
        CbrTrafficSource(kernel, net.nic_of("x"), "b", cross_bps).start()
    kernel.schedule(start_at, sender.start)
    kernel.run(until=duration)
    sender.stop()
    return {
        "events": kernel.events_executed,
        "generated": sender.frames_generated,
        "sent": list(sender.delivery.sent.times),
        "received": list(sender.delivery.received.times),
        "latency": list(sender.delivery.latency.series.values),
        "types": list(receiver.frame_types),
        "created": created,
        "probes": probes,
    }


def tick_driven(kernel, producer, stream, frame_filter):
    return AvVideoSender(kernel, producer, stream, frame_filter=frame_filter)


WORLDS = dict(
    bitrate_bps=st.sampled_from([0.3e6, 1.2e6, 2.5e6, 5e6]),
    level=st.sampled_from([None, FilterLevel.FULL, FilterLevel.MEDIUM,
                           FilterLevel.LOW]),
    start_at=st.floats(min_value=0.0, max_value=0.2),
    duration=st.floats(min_value=0.3, max_value=2.0),
    cross_bps=st.sampled_from([0.0, 2e6, 3e6, 8e6]),
)


@settings(max_examples=100, deadline=None)
@given(**WORLDS)
def test_tick_driven_sender_equals_the_generator_sender(**world):
    expected = run_world(GeneratorVideoSender, **world)
    assert expected["generated"] > 0
    assert run_world(tick_driven, **world) == expected


def test_a_lossy_world_is_among_the_compared_ones():
    """The drawn worlds do reach the regime where sent and received
    differ (else the equivalence would be about an idle wire)."""
    world = run_world(tick_driven, 1.2e6, None, 0.0, 2.0, 3e6)
    assert len(world["sent"]) == 60
    assert 40 < len(world["received"]) < 60
    assert world["probes"]


@settings(max_examples=40, deadline=None)
@given(**WORLDS)
def test_private_clock_equals_lone_subscriber_of_a_shared_clock(**world):
    def on_shared_clock(kernel, producer, stream, frame_filter):
        clock = PeriodicTicker(kernel, stream.frame_interval)
        sender = AvVideoSender(kernel, producer, stream,
                               frame_filter=frame_filter, clock=clock)
        start = sender.start

        def start_then_clock():
            # The farm's order: every sender subscribes, then the one
            # clock starts.
            start()
            clock.start()

        sender.start = start_then_clock
        return sender

    assert run_world(on_shared_clock, **world) == run_world(
        tick_driven, **world)
