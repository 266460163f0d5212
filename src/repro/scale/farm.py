"""Clock-driven stream actors for the capacity farm.

:class:`FarmStreamSender` is the batched counterpart of
:class:`~repro.experiments.actors.AvVideoSender`: instead of running
its own generator process it exposes :meth:`FarmStreamSender.on_tick`
for a shared :class:`~repro.sim.coalesce.PeriodicTicker`.  Each tick
generates the next MPEG frame, runs it through the optional QuO frame
filter, charges the encode cost to the stream's thread on the sender
host's CPU, and ships the frame on its A/V flow once the encode
completes — so CPU contention shows up as frame latency (the frame's
timestamp is its generation time) and, when the encoder can't keep up,
as frames skipped at the source.

:class:`FarmStreamReceiver` counts arrivals and deadline misses and
feeds reception back into the sender's delivery recorder and qosket,
mirroring :class:`~repro.experiments.actors.AvVideoReceiver`.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.oskernel.thread import SimThread
from repro.media.filtering import FrameFilter
from repro.media.mpeg import Frame, MpegStream
from repro.avstreams.endpoints import FlowConsumer, FlowProducer
from repro.core.adaptation import FrameFilteringQosket
from repro.core.metrics import DeliveryRecorder, LatencyRecorder


def stream_rng(registry: RngRegistry, stream_name: str) -> random.Random:
    """The farm's per-stream RNG convention.

    Every stream draws frame-size jitter from its own named stream, so
    adding or removing streams never perturbs the draws any other
    stream sees (the RNG-independence guarantee the farm's determinism
    rests on).
    """
    return registry.stream(f"video:{stream_name}")


class FarmStreamSender:
    """One capacity-farm stream: tick-driven, no per-stream process."""

    #: Skip a frame once this many encodes are queued on the thread (a
    #: real-time source prefers dropping to unbounded buffering).
    MAX_ENCODE_BACKLOG = 2

    def __init__(
        self,
        kernel: Kernel,
        producer: FlowProducer,
        stream: MpegStream,
        thread: Optional[SimThread] = None,
        encode_cost: float = 0.0,
        frame_filter: Optional[FrameFilter] = None,
        qosket: Optional[FrameFilteringQosket] = None,
    ) -> None:
        if encode_cost < 0:
            raise ValueError(f"negative encode cost: {encode_cost}")
        self.kernel = kernel
        self.producer = producer
        self.stream = stream
        self.thread = thread
        self.encode_cost = float(encode_cost)
        self.frame_filter = frame_filter
        self.qosket = qosket
        self.delivery = DeliveryRecorder(stream.name)
        self.frames_generated = 0
        self.frames_filtered = 0
        self.frames_skipped = 0
        self.frames_sent = 0
        self._running = False
        self._cpu = None if thread is None else thread.cpu

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        if self.qosket is not None:
            self.qosket.start()

    def stop(self) -> None:
        self._running = False
        if self.qosket is not None:
            self.qosket.stop()

    def on_tick(self, now: float) -> None:
        """Generate, filter, encode and send this interval's frame."""
        if not self._running:
            return
        frame = self.stream.next_frame(now)
        self.frames_generated += 1
        if self.frame_filter is not None and not self.frame_filter.accept(
                frame):
            self.frames_filtered += 1
            return
        if self._cpu is None or self.encode_cost == 0.0:
            self._send(frame)
            return
        if self._cpu.queue_depth(self.thread) > self.MAX_ENCODE_BACKLOG:
            # The encoder is drowning: drop at the source rather than
            # queue stale video behind it.
            self.frames_skipped += 1
            return
        request = self._cpu.submit(self.thread, self.encode_cost)
        request.done.wait(lambda _value, frame=frame: self._send(frame))

    def _send(self, frame: Frame) -> None:
        if not self._running:
            return
        self.producer.send_frame(frame)
        self.frames_sent += 1
        self.delivery.record_sent(self.kernel.now)
        if self.qosket is not None:
            self.qosket.record_sent()


class FarmStreamReceiver:
    """Counts frames, latency and deadline misses for one farm stream."""

    def __init__(
        self,
        kernel: Kernel,
        consumer: FlowConsumer,
        sender: FarmStreamSender,
        deadline: float,
    ) -> None:
        if deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self.kernel = kernel
        self.sender = sender
        self.deadline = float(deadline)
        self.frames_delivered = 0
        self.frames_on_time = 0
        self.latency = LatencyRecorder(sender.stream.name)
        consumer.on_frame = self._on_frame

    def _on_frame(self, frame: Frame, latency: float) -> None:
        now = self.kernel.now
        self.frames_delivered += 1
        if latency <= self.deadline:
            self.frames_on_time += 1
        self.latency.record(now, latency)
        self.sender.delivery.record_received(now, sent_at=now - latency)
        if self.sender.qosket is not None:
            self.sender.qosket.record_received()
