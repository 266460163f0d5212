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

from typing import Any, Dict, List, Optional

from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.oskernel.host import Host
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
    """Sends an MPEG stream over an A/V flow, optionally filtered.

    When a :class:`FrameFilteringQosket` is supplied, every post-filter
    send is recorded against its loss condition, so the contract can
    react to downstream losses.
    """

    def __init__(
        self,
        kernel: Kernel,
        producer: FlowProducer,
        stream: MpegStream,
        frame_filter: Optional[FrameFilter] = None,
        qosket: Optional[FrameFilteringQosket] = None,
    ) -> None:
        self.kernel = kernel
        self.producer = producer
        self.stream = stream
        self.frame_filter = frame_filter
        self.qosket = qosket
        self.delivery = DeliveryRecorder(stream.name)
        self.frames_generated = 0
        self.frames_sent = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        if self.qosket is not None:
            self.qosket.start()
        Process(self.kernel, self._run(), name=f"avsender.{self.stream.name}")

    def stop(self) -> None:
        self._running = False
        if self.qosket is not None:
            self.qosket.stop()

    def _run(self):
        interval = self.stream.frame_interval
        while self._running:
            frame = self.stream.next_frame(self.kernel.now)
            self.frames_generated += 1
            if self.frame_filter is None or self.frame_filter.accept(frame):
                self.producer.send_frame(frame)
                self.frames_sent += 1
                self.delivery.record_sent(self.kernel.now)
                if self.qosket is not None:
                    self.qosket.record_sent()
            yield interval


class AvVideoReceiver:
    """Counts and times frames arriving on an A/V flow.

    When the sender runs a filtering qosket, reception feedback is
    reported to it (standing in for QuO's distributed system-condition
    propagation; the simulation clock is global, so the feedback is
    instantaneous rather than delayed by a control channel).
    """

    def __init__(
        self,
        kernel: Kernel,
        consumer: FlowConsumer,
        sender: Optional[AvVideoSender] = None,
        name: str = "av-receiver",
    ) -> None:
        self.kernel = kernel
        self.consumer = consumer
        self.sender = sender
        self.delivery = DeliveryRecorder(name)
        self.frames_by_type: Dict[str, int] = {}
        #: Type of each delivered frame, aligned with
        #: ``delivery.received`` (so a count can be windowed afterwards).
        self.frame_types: List[str] = []
        consumer.on_frame = self._on_frame

    def _on_frame(self, frame: Frame, latency: float) -> None:
        self.delivery.record_received(
            self.kernel.now, sent_at=self.kernel.now - latency
        )
        key = frame.frame_type.value
        self.frame_types.append(key)
        self.frames_by_type[key] = self.frames_by_type.get(key, 0) + 1
        if self.sender is not None:
            self.sender.delivery.record_received(
                self.kernel.now, sent_at=self.kernel.now - latency
            )
            if self.sender.qosket is not None:
                self.sender.qosket.record_received()


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
