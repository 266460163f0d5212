"""Tests for the frame-filtering adaptation qosket."""

import pytest

from repro.sim import Kernel
from repro.media import FrameFilter, MpegStream
from repro.media.filtering import FilterLevel, frames_per_second
from repro.core import DeliveryRecorder, FrameFilteringQosket


def make_qosket(kernel, **kwargs):
    frame_filter = FrameFilter()
    qosket = FrameFilteringQosket(
        kernel, frame_filter,
        window=1.0, update_interval=0.25, **kwargs)
    # The pipeline's book, as AvVideoSender hands it over.
    qosket.loss.recorder = DeliveryRecorder("pipeline")
    qosket.start()
    return qosket, frame_filter


class ReactiveNetwork:
    """A capacity-limited 'network': delivers at most ``capacity_fps``
    frames per second of whatever the filter lets through — so filtering
    down actually clears the losses, as on the real wire."""

    def __init__(self, kernel, qosket, fps=30.0):
        self.kernel = kernel
        self.qosket = qosket
        self.fps = fps
        self.stream = MpegStream("s")
        self.capacity_fps = fps
        self.credit = 1.0

    def run(self, duration):
        frames = int(duration * self.fps)
        start = self.kernel.now
        for i in range(frames):
            self.kernel.schedule_at(start + i / self.fps, self._frame)

    def _frame(self):
        # Capacity accrues with time (every frame slot), with a small
        # burst allowance, independent of what the filter passes.
        self.credit = min(2.0, self.credit + self.capacity_fps / self.fps)
        frame = self.stream.next_frame(self.kernel.now)
        if not self.qosket.frame_filter.accept(frame):
            return
        now = self.kernel.now
        self.qosket.loss.recorder.record_sent(now)
        if self.credit >= 1.0:
            self.credit -= 1.0
            self.qosket.loss.recorder.record_received(now, sent_at=now)


def drive_fixed_loss(kernel, qosket, duration, loss_fraction, fps=30.0,
                     start=None):
    """Open-loop driver: a fixed loss fraction regardless of level."""
    t0 = kernel.now if start is None else start
    lost_per_ten = round(loss_fraction * 10)
    recorder = qosket.loss.recorder
    for i in range(int(duration * fps)):
        t = t0 + i / fps
        kernel.schedule_at(t, recorder.record_sent, t)
        if (i % 10) >= lost_per_ten:
            kernel.schedule_at(t, recorder.record_received, t, t)


def test_starts_at_full_rate():
    kernel = Kernel()
    qosket, frame_filter = make_qosket(kernel)
    assert frame_filter.level == FilterLevel.FULL
    assert qosket.contract.current_region == "full"


def time_in_regions(contract, horizon):
    """Seconds spent in each region up to ``horizon``."""
    totals = {}
    transitions = contract.transitions
    for current, nxt in zip(transitions, transitions[1:]):
        totals[current.to_region] = (
            totals.get(current.to_region, 0.0) + nxt.time - current.time
        )
    if transitions:
        last = transitions[-1]
        totals[last.to_region] = (
            totals.get(last.to_region, 0.0) + horizon - last.time
        )
    return totals


def test_mild_congestion_settles_mostly_at_medium():
    """Network supports 20 fps: full rate loses ~1/3, 10 fps is clean.
    Aside from occasional upgrade probes, the stream sits at MEDIUM and
    never needs to fall to LOW."""
    kernel = Kernel()
    qosket, frame_filter = make_qosket(kernel)
    network = ReactiveNetwork(kernel, qosket)
    network.capacity_fps = 20.0
    network.run(20.0)
    kernel.run(until=20.0)
    totals = time_in_regions(qosket.contract, 20.0)
    assert totals.get("degraded", 0.0) > 0.6 * 20.0
    assert totals.get("severe", 0.0) == 0.0


def test_heavy_congestion_escalates_to_low():
    """Network supports 4 fps: even the 10 fps level keeps losing."""
    kernel = Kernel()
    qosket, frame_filter = make_qosket(kernel)
    network = ReactiveNetwork(kernel, qosket)
    network.capacity_fps = 4.0
    network.run(20.0)
    kernel.run(until=20.0)
    totals = time_in_regions(qosket.contract, 20.0)
    assert totals.get("severe", 0.0) > 0.5 * 20.0


def test_recovery_upgrades_back_to_full():
    kernel = Kernel()
    qosket, frame_filter = make_qosket(kernel)
    network = ReactiveNetwork(kernel, qosket)
    network.capacity_fps = 20.0
    network.run(6.0)
    kernel.run(until=6.0)
    assert frame_filter.level == FilterLevel.MEDIUM
    network.capacity_fps = 30.0  # congestion clears
    network.run(14.0)
    kernel.run(until=20.0)
    assert frame_filter.level == FilterLevel.FULL
    assert qosket.contract.current_region == "full"


def test_failed_probes_back_off_exponentially():
    """Under sustained congestion, probe attempts must become rarer
    over time instead of oscillating at a fixed period."""
    kernel = Kernel()
    qosket, frame_filter = make_qosket(kernel)
    network = ReactiveNetwork(kernel, qosket)
    network.capacity_fps = 20.0
    network.run(40.0)
    kernel.run(until=40.0)
    upgrades = [
        t.time for t in qosket.contract.transitions if t.to_region == "full"
    ][1:]  # skip the initial settle at t=0
    assert len(upgrades) >= 2
    gaps = [b - a for a, b in zip(upgrades, upgrades[1:])]
    assert all(later >= earlier for earlier, later in zip(gaps, gaps[1:]))
    # Backoff state is observable too.
    assert qosket._patience > qosket.base_patience


def test_hysteresis_prevents_oscillation_between_thresholds():
    """Loss hovering between the thresholds must not flap."""
    kernel = Kernel()
    # A long dwell isolates the upgrade-hysteresis behavior from the
    # escalation path (the loss here is open-loop, so escalation would
    # otherwise eventually fire too).
    qosket, frame_filter = make_qosket(
        kernel, degrade_threshold=0.10, upgrade_threshold=0.02, dwell=100.0)
    drive_fixed_loss(kernel, qosket, duration=2.0, loss_fraction=0.3)
    kernel.run(until=2.5)
    assert frame_filter.level == FilterLevel.MEDIUM
    transitions_before = len(qosket.contract.transitions)
    # 10% loss: >= upgrade threshold (no upgrade), not > degrade
    # threshold (no further escalation).
    drive_fixed_loss(kernel, qosket, duration=5.0, loss_fraction=0.1,
                     start=2.5)
    kernel.run(until=7.5)
    assert frame_filter.level == FilterLevel.MEDIUM
    assert len(qosket.contract.transitions) == transitions_before


def test_threshold_validation():
    kernel = Kernel()
    with pytest.raises(ValueError):
        FrameFilteringQosket(kernel, FrameFilter(),
                             degrade_threshold=0.1, upgrade_threshold=0.2)


def test_filter_actually_reduces_sent_frames():
    """After a downgrade the filter passes only I+P frames."""
    kernel = Kernel()
    qosket, frame_filter = make_qosket(kernel)
    network = ReactiveNetwork(kernel, qosket)
    network.capacity_fps = 20.0
    network.run(6.0)
    kernel.run(until=6.0)
    assert frame_filter.level == FilterLevel.MEDIUM
    stream = MpegStream("probe")
    accepted = sum(
        frame_filter.accept(stream.next_frame(i / 30.0)) for i in range(150)
    )
    assert accepted == 50  # 10 fps of a 30 fps stream for 5 seconds


def test_levels_match_paper_rates():
    assert frames_per_second(FilterLevel.MEDIUM) == pytest.approx(10.0)
    assert frames_per_second(FilterLevel.LOW) == pytest.approx(2.0)
