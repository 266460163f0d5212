"""Contract-driven frame filtering.

The Fig 7 / Table 1 adaptation: "The frame filtering cases dynamically
reacted to network load by filtering frames down to 10 fps or 2 fps,
whichever the network would support."

:class:`FrameFilteringQosket` packages that policy as a QuO qosket:

* a loss-rate system condition reading the video pipeline's delivery
  recorder (the pipeline sets ``qosket.loss.recorder``);
* a contract with three regions — ``full`` (clean), ``degraded``
  (drop to 10 fps), ``severe`` (drop to 2 fps);
* region actions that set the sender-side
  :class:`~repro.media.filtering.FrameFilter` level.

Control-loop details that matter (each exists to kill a distinct
failure mode):

*Escalation dwell* — after a downgrade, stale losses from before the
downgrade are still inside the measurement window; escalating again
before the downgrade had time to act would always jump straight to the
bottom.  Escalation therefore waits ``dwell`` seconds.

*Upgrade patience with backoff* — once filtering clears the losses,
the sender cannot know whether the network would now sustain a higher
rate without *probing* (upgrading and watching).  A failed probe
(upgrade followed by a quick re-downgrade) doubles the patience before
the next probe, so a persistently congested network sees rare probes
instead of steady 3-second oscillation; a successful probe resets it.

*Staged recovery* — upgrades go LOW -> MEDIUM -> FULL one step at a
time, mirroring the downgrade ladder.

:class:`PacingQosket` is the same ladder on the pub-sub side (fig 12's
``adaptive`` arm): a reader's deadline checks step the send divisor it
requests from the writers along :data:`ADAPT_LADDER`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim.kernel import Kernel
from repro.media.filtering import FilterLevel, FrameFilter
from repro.quo.contract import Contract, Region
from repro.quo.qosket import Qosket
from repro.quo.syscond import LossRateSC, ValueSC

if TYPE_CHECKING:  # pragma: no cover
    from repro.pubsub.core import DataReader

#: The pub-sub pacing ladder's send divisors: 30 -> 10 -> 2 fps on a
#: 30 Hz topic.
ADAPT_LADDER = (1, 3, 15)


class FrameFilteringQosket(Qosket):
    """The paper's frame-filtering adaptation, packaged for reuse.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    frame_filter:
        The sender-side filter to control.
    degrade_threshold:
        Loss fraction that triggers a downgrade (default 10 %).
    upgrade_threshold:
        Loss fraction below which the network counts as clean
        (default 2 %).
    window / update_interval:
        Loss measurement window and cadence.
    dwell:
        Minimum time after a downgrade before escalating further
        (default: the window length).
    upgrade_patience:
        Clean time required before the first upgrade probe (default:
        twice the window); doubles on each failed probe, up to 8x.
    """

    def __init__(
        self,
        kernel: Kernel,
        frame_filter: FrameFilter,
        name: str = "frame-filtering",
        degrade_threshold: float = 0.10,
        upgrade_threshold: float = 0.02,
        window: float = 2.0,
        update_interval: float = 0.5,
        dwell: Optional[float] = None,
        upgrade_patience: Optional[float] = None,
    ) -> None:
        if not 0 <= upgrade_threshold < degrade_threshold <= 1:
            raise ValueError(
                "need 0 <= upgrade_threshold < degrade_threshold <= 1"
            )
        self._kernel = kernel
        self.frame_filter = frame_filter
        self.degrade_threshold = degrade_threshold
        self.upgrade_threshold = upgrade_threshold
        self.dwell = window if dwell is None else float(dwell)
        base_patience = (
            2.0 * window if upgrade_patience is None else float(upgrade_patience)
        )
        self.base_patience = base_patience
        self.max_patience = 8.0 * base_patience
        self._patience = base_patience
        self._clean_since: Optional[float] = None
        self._last_downgrade = float("-inf")
        self._last_upgrade: Optional[float] = None
        self.loss = LossRateSC(
            kernel, "loss", window=window, update_interval=update_interval
        )
        # Order matters: clean-time tracking must update before the
        # contract (attached in super().__init__) re-evaluates.
        self.loss.observe(self._track_cleanliness)
        contract = Contract(kernel, name, regions=[
            Region(
                "severe",
                self._severe_predicate,
                on_enter=lambda c: self._downgrade(FilterLevel.LOW),
            ),
            Region(
                "degraded",
                self._degraded_predicate,
                on_enter=lambda c: self._enter_degraded(),
            ),
            Region(
                "full",
                on_enter=lambda c: self._upgrade(FilterLevel.FULL),
            ),
        ])
        super().__init__(kernel, contract, conditions=[self.loss])
        self._heartbeat = None
        self._heartbeat_interval = float(update_interval)
        #: Optional FaultReporterSC; see :meth:`attach_fault_reporter`.
        self.fault_reporter = None

    # ------------------------------------------------------------------
    # Lifecycle: upgrades are time-driven (patience elapsing), not only
    # value-driven, so the contract needs a periodic re-evaluation even
    # while the loss value sits still at 0.
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        if self._heartbeat is None:
            self._heartbeat = self._kernel.schedule(
                self._heartbeat_interval, self._beat
            )

    def stop(self) -> None:
        super().stop()
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            self._heartbeat = None

    def _beat(self) -> None:
        self._heartbeat = self._kernel.schedule(
            self._heartbeat_interval, self._beat
        )
        self.contract.evaluate()

    # ------------------------------------------------------------------
    # Level transitions with probe-backoff bookkeeping
    # ------------------------------------------------------------------
    def _downgrade(self, level: FilterLevel) -> None:
        now = self._kernel.now
        if (
            self._last_upgrade is not None
            and self._last_downgrade != float("-inf")
            and now - self._last_upgrade <= self._patience
        ):
            # The last upgrade was a failed probe: back off.  (The
            # initial settle into "full" does not count as a probe.)
            self._patience = min(self.max_patience, self._patience * 2)
        self.frame_filter.set_level(level)
        self._last_downgrade = now
        self._clean_since = None

    def _enter_degraded(self) -> None:
        if self.frame_filter.level == FilterLevel.LOW:
            # Staged recovery LOW -> MEDIUM counts as an upgrade probe.
            self._upgrade(FilterLevel.MEDIUM)
        else:
            self._downgrade(FilterLevel.MEDIUM)

    def _upgrade(self, level: FilterLevel) -> None:
        now = self._kernel.now
        self.frame_filter.set_level(level)
        self._last_upgrade = now
        # Restart the cleanliness clock at *now*, not at None: the
        # loss condition only notifies observers on a value change, so
        # if loss sits identically at zero after the probe, a None
        # here would never be set again and staged recovery would
        # stall one level below full forever.
        self._clean_since = now
        # If this probe survives a full patience interval without a
        # downgrade, congestion has genuinely cleared: restore normal
        # patience.
        self._kernel.schedule(self._patience, self._confirm_probe, now)

    def _confirm_probe(self, probe_time: float) -> None:
        if self._last_downgrade < probe_time:
            self._patience = self.base_patience

    def _track_cleanliness(self, condition) -> None:
        if condition.value < self.upgrade_threshold:
            if self._clean_since is None:
                self._clean_since = self._kernel.now
        else:
            self._clean_since = None

    def _may_upgrade(self) -> bool:
        return (
            self._clean_since is not None
            and self._kernel.now - self._clean_since >= self._patience
        )

    def _dwelled(self) -> bool:
        return self._kernel.now - self._last_downgrade >= self.dwell

    # ------------------------------------------------------------------
    # Region predicates
    # ------------------------------------------------------------------
    def _severe_predicate(self, snapshot) -> bool:
        loss = snapshot["loss"]
        if self.frame_filter.level == FilterLevel.LOW:
            return not self._may_upgrade()
        return (
            self.frame_filter.level == FilterLevel.MEDIUM
            and loss > self.degrade_threshold
            and self._dwelled()
        )

    def _degraded_predicate(self, snapshot) -> bool:
        loss = snapshot["loss"]
        level = self.frame_filter.level
        if level == FilterLevel.MEDIUM:
            return not self._may_upgrade()
        if level == FilterLevel.LOW:
            # Reached only when severe released us: step up one level.
            return True
        return loss > self.degrade_threshold

    # ------------------------------------------------------------------
    # Fault-reporter integration
    # ------------------------------------------------------------------
    def attach_fault_reporter(self, reporter) -> None:
        """Shed load the moment a fault is reported.

        ``reporter`` is a
        :class:`~repro.quo.syscond.FaultReporterSC`.  Loss statistics
        need a window's worth of samples before a downgrade triggers;
        a reported outage is authoritative, so the qosket drops
        straight to the 2 fps floor and lets the ordinary staged
        recovery bring the rate back once the report clears *and* the
        network measures clean.
        """
        self.fault_reporter = reporter
        reporter.observe(self._on_fault_report)

    def _on_fault_report(self, condition) -> None:
        if condition.value:
            # Direct set, bypassing _downgrade: a fault-driven shed is
            # not a failed probe and must not inflate the probe
            # backoff.
            self.frame_filter.set_level(FilterLevel.LOW)
            self._last_downgrade = self._kernel.now
            self._clean_since = None
        else:
            # All faults cleared: restart clean-time tracking and drop
            # any probe backoff accumulated *during* the outage — it
            # measured the faulted network, not the restored one — so
            # the staged upgrade ladder runs at base patience.
            self._clean_since = None
            self._patience = self.base_patience
            self._last_upgrade = None
        self.contract.evaluate()


class PacingQosket:
    """Reader-side QuO contract driving the pub-sub pacing ladder.

    The reader's deadline monitor feeds a pacing *level* system
    condition; the contract's regions (full / degraded / severe) apply
    the matching send divisor at the writer through the broker.  The
    level goes up after two consecutive paced misses and comes back
    down only after ``PATIENCE`` consecutive clean checks, so the
    ladder cannot flap — and "clean" is judged against the *paced*
    inter-arrival expectation, not the raw deadline, so a reader
    parked at 2 fps can still observe that congestion cleared.
    """

    MISS_STREAK = 2
    PATIENCE = 10
    #: Clean means an arrival within this many paced periods.
    PACE_SLACK = 2.5

    def __init__(self, kernel: Kernel, reader: DataReader) -> None:
        self.kernel = kernel
        self.reader = reader
        self.level = 0
        self._ok_streak = 0
        self._miss_streak = 0
        self.level_sc = ValueSC(kernel, f"{reader.name}.pace", initial=0.0)
        self.contract = Contract(kernel, f"pace:{reader.name}", regions=[
            Region("severe", lambda s: s[f"{reader.name}.pace"] >= 2,
                   on_enter=self._apply),
            Region("degraded", lambda s: s[f"{reader.name}.pace"] >= 1,
                   on_enter=self._apply),
            Region("full", on_enter=self._apply),
        ])
        self.contract.attach(self.level_sc)
        self.contract.evaluate()
        reader.on_deadline_check = self._on_check

    def _apply(self, contract: Contract) -> None:
        self.reader.request_divisor(ADAPT_LADDER[self.level])

    def _on_check(self, reader: DataReader, missed: bool) -> None:
        period = ADAPT_LADDER[self.level] / reader.topic.rate_hz
        threshold = max(reader.qos.deadline or 0.0, self.PACE_SLACK * period)
        stale = (reader.last_arrival is None
                 or self.kernel.now - reader.last_arrival > threshold)
        if stale:
            self._ok_streak = 0
            self._miss_streak += 1
            if self._miss_streak >= self.MISS_STREAK and self.level < 2:
                self.level += 1
                self._miss_streak = 0
                self.level_sc.set(float(self.level))
        else:
            self._miss_streak = 0
            self._ok_streak += 1
            if self._ok_streak >= self.PATIENCE and self.level > 0:
                self.level -= 1
                self._ok_streak = 0
                self.level_sc.set(float(self.level))
