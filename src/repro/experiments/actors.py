"""Application actors used by the experiments and examples.

These are the paper's Figure 3 roles, built on the public API:

* :class:`GiopVideoSender` / :class:`VideoReceiverServant` — video as
  oneway CORBA requests, the section 5.1 workload ("two identical
  tasks playing the role of video senders, generating GIOP messages at
  the rate of approximately 1.2 M bits-per-second").
* :class:`AvVideoSender` / :class:`AvVideoReceiver` — video over A/V
  Streaming Service flows, the section 5.2 workload, with optional
  QuO frame filtering.
* :class:`VideoDistributor` — the middle tier: consumes one flow,
  forwards to many, optionally filtering per output.
* :class:`AtrServant` — the automated-target-recognition stage:
  receives PPM images and runs the three edge detectors, expressing
  their measured compute demand on the server CPU.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.coalesce import PeriodicTicker
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.oskernel.thread import SimThread
from repro.orb.cdr import OpaquePayload
from repro.orb.core import Orb
from repro.orb.idl import compile_idl
from repro.orb.ior import ObjectReference
from repro.media.filtering import FrameFilter
from repro.media.mpeg import Frame, MpegStream
from repro.avstreams.endpoints import FlowConsumer, FlowProducer
from repro.core.adaptation import FrameFilteringQosket
from repro.core.metrics import DeliveryRecorder, LatencyRecorder

#: The video/ATR interfaces, compiled once for all experiments.
VIDEO_IDL = """
module Repro {
    interface VideoSink {
        oneway void push(in opaque frame);
    };
    interface Atr {
        long detect(in opaque image);
    };
};
"""
_INTERFACES = compile_idl(VIDEO_IDL)
VIDEO_SINK = _INTERFACES["Repro::VideoSink"]
ATR = _INTERFACES["Repro::Atr"]


class VideoReceiverServant(VIDEO_SINK.skeleton_class):
    """Records per-frame latency; the section 5.1 receiver servant."""

    def __init__(self, kernel: Kernel, name: str = "receiver") -> None:
        self.kernel = kernel
        self.name = name
        self.latency = LatencyRecorder(name)
        self.frames = 0

    def push(self, frame: OpaquePayload) -> None:
        video_frame: Frame = frame.value
        self.frames += 1
        self.latency.record(
            self.kernel.now, self.kernel.now - video_frame.timestamp
        )


class GiopVideoSender:
    """Sends an MPEG stream as oneway CORBA requests.

    Each frame costs marshaling CPU on the sender's application thread
    (that is what the Fig 5 competing CPU load interferes with), then
    travels as a GIOP message on the sender's stream connection.
    """

    #: Skip frames once this many segments are queued on the transport
    #: (a real-time source prefers dropping to unbounded buffering).
    MAX_TRANSPORT_DEPTH = 64

    def __init__(
        self,
        kernel: Kernel,
        orb: Orb,
        objref: ObjectReference,
        stream: MpegStream,
        thread: SimThread,
        priority: Optional[int] = None,
        dscp=None,
    ) -> None:
        self.kernel = kernel
        self.stream = stream
        self.thread = thread
        self.stub = VIDEO_SINK.stub_class(
            orb, objref, thread=thread, priority=priority, dscp=dscp
        )
        self.frames_sent = 0
        self.frames_skipped = 0
        self._running = False
        self._process: Optional[Process] = None

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._process = Process(
            self.kernel, self._run(), name=f"sender.{self.stream.name}"
        )

    def stop(self) -> None:
        self._running = False

    def _run(self):
        interval = self.stream.frame_interval
        while self._running:
            frame = self.stream.next_frame(self.kernel.now)
            if self.stub.transport_depth() > self.MAX_TRANSPORT_DEPTH:
                # The connection is drowning: skip rather than queue
                # stale video behind it.
                self.frames_skipped += 1
                yield interval
                continue
            payload = OpaquePayload(frame, nbytes=frame.size_bytes)
            ack = self.stub.push(payload)
            self.frames_sent += 1
            # Wait for the send (incl. marshaling CPU) to be queued,
            # then hold to the frame cadence.
            yield ack
            remainder = (frame.timestamp + interval) - self.kernel.now
            if remainder > 0:
                yield remainder


class AvVideoSender:
    """Sends an MPEG stream over an A/V flow, one frame per clock tick.

    Every tick generates the next frame, runs it through the optional
    QuO frame filter and ships it on the flow.  With a ``thread`` and an
    ``encode_cost`` the frame first costs that much CPU on the thread
    and is shipped when the encode completes; when the encoder cannot
    keep up, frames are skipped at the source.

    ``clock`` is a :class:`~repro.sim.coalesce.PeriodicTicker` shared
    with other senders (the stream farms drive every stream from one
    kernel event per frame interval); without one the sender ticks on a
    private clock at ``stream.frame_interval``.

    :attr:`delivery` is the stream's one
    :class:`~repro.core.metrics.DeliveryRecorder`: the sender books each
    post-filter send in it, the :class:`AvVideoReceiver` each delivery,
    and a :class:`FrameFilteringQosket`'s loss condition reads it, so
    the contract reacts to downstream losses.
    """

    #: Skip a frame once this many encodes are queued on the thread (a
    #: real-time source prefers dropping to unbounded buffering).
    MAX_ENCODE_BACKLOG = 2

    def __init__(
        self,
        kernel: Kernel,
        producer: FlowProducer,
        stream: MpegStream,
        frame_filter: Optional[FrameFilter] = None,
        qosket: Optional[FrameFilteringQosket] = None,
        thread: Optional[SimThread] = None,
        encode_cost: float = 0.0,
        clock: Optional[PeriodicTicker] = None,
    ) -> None:
        if encode_cost < 0:
            raise ValueError(f"negative encode cost: {encode_cost}")
        self.kernel = kernel
        self.producer = producer
        self.stream = stream
        self.frame_filter = frame_filter
        self.qosket = qosket
        self.thread = thread
        self.encode_cost = float(encode_cost)
        #: The encode thread's live request queue, or ``None`` when
        #: frames are not encoded (no thread, or a zero cost).
        self._encodes = (None if thread is None or self.encode_cost == 0.0
                         else thread.cpu.backlog(thread))
        self.delivery = DeliveryRecorder(stream.name)
        if qosket is not None:
            qosket.loss.recorder = self.delivery
        self.frames_generated = 0
        self.frames_skipped = 0
        self._private_clock = clock is None
        self._clock = clock or PeriodicTicker(kernel, stream.frame_interval)
        self._unsubscribe: Optional[Callable[[], None]] = None

    def start(self) -> None:
        if self._unsubscribe is not None:
            return
        if self.qosket is not None:
            self.qosket.start()
        self._unsubscribe = self._clock.subscribe(self.on_tick)
        if self._private_clock:
            self._clock.start()

    def stop(self) -> None:
        if self._unsubscribe is None:
            return
        self._unsubscribe()
        self._unsubscribe = None
        if self._private_clock:
            self._clock.stop()
        if self.qosket is not None:
            self.qosket.stop()

    def on_tick(self, now: float) -> None:
        """Generate, filter, encode and send this interval's frame."""
        frame = self.stream.next_frame(now)
        self.frames_generated += 1
        if self.frame_filter is not None and not self.frame_filter.accept(
                frame):
            return
        encodes = self._encodes
        if encodes is None:
            self._send(frame)
            return
        if len(encodes) > self.MAX_ENCODE_BACKLOG:
            # The encoder is drowning: drop at the source rather than
            # queue stale video behind it.
            self.frames_skipped += 1
            return
        thread = self.thread
        request = thread.cpu.submit(thread, self.encode_cost)
        request.done.wait(lambda _value, frame=frame: self._send(frame))

    def _send(self, frame: Frame) -> None:
        if self._unsubscribe is None:
            # Stopped while the frame was encoding.
            return
        self.producer.send_frame(frame)
        self.delivery.record_sent(self.kernel.now)


class AvVideoReceiver:
    """Books the frames arriving on an A/V flow in the sender's recorder.

    Writing into ``sender.delivery`` is what feeds reception back to a
    sender-side filtering contract (standing in for QuO's distributed
    system-condition propagation; the simulation clock is global, so
    the feedback is instantaneous rather than delayed by a control
    channel).  With a ``deadline`` the receiver also counts the frames
    delivered within it and keeps their latency as the consumer
    reported it.
    """

    def __init__(
        self,
        kernel: Kernel,
        consumer: FlowConsumer,
        sender: AvVideoSender,
        deadline: Optional[float] = None,
    ) -> None:
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.kernel = kernel
        self.consumer = consumer
        self.delivery = sender.delivery
        #: Type of each delivered frame, aligned with
        #: ``delivery.received`` (so a count can be windowed afterwards).
        self.frame_types: List[str] = []
        self.deadline = deadline
        self.frames_on_time = 0
        #: Latency of each frame as delivered, kept under a deadline:
        #: the recorder's ``now - sent_at`` round trip is an ulp off it.
        self.latency = LatencyRecorder(sender.stream.name)
        consumer.on_frame = self._on_frame

    def _on_frame(self, frame: Frame, latency: float) -> None:
        now = self.kernel.now
        self.delivery.record_received(now, sent_at=now - latency)
        self.frame_types.append(frame.frame_type._value_)
        if self.deadline is not None:
            self.latency.record(now, latency)
            if latency <= self.deadline:
                self.frames_on_time += 1


class VideoDistributor:
    """The Figure 3 middle tier: one input flow, many output flows."""

    def __init__(
        self,
        kernel: Kernel,
        consumer: FlowConsumer,
        outputs: Optional[List[FlowProducer]] = None,
    ) -> None:
        self.kernel = kernel
        self.consumer = consumer
        self.outputs: List[tuple] = []  # (producer, filter or None)
        self.frames_in = 0
        self.frames_out = 0
        consumer.on_frame = self._forward
        for producer in outputs or []:
            self.add_output(producer)

    def add_output(
        self, producer: FlowProducer, frame_filter: Optional[FrameFilter] = None
    ) -> None:
        self.outputs.append((producer, frame_filter))

    def _forward(self, frame: Frame, _latency: float) -> None:
        self.frames_in += 1
        for producer, frame_filter in self.outputs:
            if frame_filter is None or frame_filter.accept(frame):
                producer.send_frame(frame)
                self.frames_out += 1


class AtrServant(ATR.skeleton_class):
    """The image-processing stage: per-image edge detection.

    Runs the three detectors in sequence, charging each one's compute
    demand to the dispatching worker thread, and records per-algorithm
    execution times (submission to completion — what the paper's
    Table 2 measures under contention).

    ``algorithm_costs`` maps algorithm name to no-load CPU seconds on
    the reference machine; defaults are calibrated from the real numpy
    implementations' relative costs (see
    :func:`repro.media.edge.relative_costs`) scaled to the paper's
    850 MHz Pentium III era.
    """

    #: No-load CPU demand per 400x250 image, seconds.  Kirsch runs 8
    #: convolutions, Prewitt and Sobel 2 each; absolute scale chosen
    #: for a C++ implementation on the paper's 850 MHz machine.
    DEFAULT_COSTS = {"Kirsch": 0.180, "Prewitt": 0.050, "Sobel": 0.055}

    def __init__(
        self,
        kernel: Kernel,
        algorithm_costs: Optional[Dict[str, float]] = None,
    ) -> None:
        self.kernel = kernel
        self.algorithm_costs = dict(algorithm_costs or self.DEFAULT_COSTS)
        #: Per-algorithm execution-time recorders.
        self.timings: Dict[str, LatencyRecorder] = {
            name: LatencyRecorder(name) for name in self.algorithm_costs
        }
        self.images_processed = 0

    def detect(self, image: OpaquePayload):
        for name, cost in self.algorithm_costs.items():
            started = self.kernel.now
            yield self.compute(cost)
            self.timings[name].record(self.kernel.now, self.kernel.now - started)
        self.images_processed += 1
        return self.images_processed
