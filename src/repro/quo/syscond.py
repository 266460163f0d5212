"""System condition objects.

A :class:`SystemCondition` exposes one observable (or controllable)
aspect of the system behind a uniform interface: ``value`` reads the
current state, ``changed`` is a signal fired when it moves, and
``observers`` (typically contracts) are re-evaluated on change.

The concrete conditions below are the ones the figures' contracts
watch: :class:`ValueSC`, set by the application or a manager;
:class:`LossRateSC`, the windowed loss of one A/V stream; and
:class:`FaultReporterSC`, the faults the injector reports active.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, List, Optional

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.sim.process import Signal


class SystemCondition:
    """Base: an observable named value."""

    def __init__(self, kernel: Kernel, name: str, initial: Any = None) -> None:
        self.kernel = kernel
        self.name = name
        self._value = initial
        self.changed = Signal(kernel, name=f"syscond.{name}")
        self._observers: List[Callable[["SystemCondition"], None]] = []

    @property
    def value(self) -> Any:
        return self._value

    def observe(self, callback: Callable[["SystemCondition"], None]) -> None:
        """Register for updates; called as ``callback(syscond)``."""
        self._observers.append(callback)

    def _update(self, value: Any) -> None:
        if value == self._value:
            return
        self._value = value
        self.changed.fire(value)
        for observer in list(self._observers):
            observer(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}={self._value!r}>"


class ValueSC(SystemCondition):
    """A directly settable condition (application- or manager-fed)."""

    def set(self, value: Any) -> None:
        self._update(value)


class _PolledCondition(SystemCondition):
    """A condition recomputed every ``update_interval`` by :meth:`_sample`,
    so that silence (no events at all) also shows up."""

    def __init__(self, kernel: Kernel, name: str,
                 update_interval: float) -> None:
        super().__init__(kernel, name, initial=0.0)
        self.update_interval = float(update_interval)
        self._timer: Optional[ScheduledEvent] = None

    def start(self) -> None:
        """Begin periodic recomputation (idempotent)."""
        if self._timer is None:
            self._timer = self.kernel.schedule(self.update_interval, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        # Re-schedule first: the next tick's seq is drawn before any
        # event the sample's observers schedule.
        self._timer = self.kernel.schedule(self.update_interval, self._tick)
        self._sample()

    def _sample(self) -> None:
        raise NotImplementedError


class LossRateSC(_PolledCondition):
    """Loss fraction over a sliding window of send/receive events.

    The condition keeps no books of its own: it reads :attr:`recorder`,
    the delivery recorder of the pipeline it watches — anything whose
    ``sent.times`` and ``received.times`` are ascending lists of event
    times, such as a :class:`repro.core.metrics.DeliveryRecorder`.  The
    pipeline sets it (the A/V sender does); until then nothing was sent.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        window: float = 2.0,
        update_interval: float = 0.5,
    ) -> None:
        super().__init__(kernel, name, update_interval)
        self.window = float(window)
        self.recorder = None

    def _sample(self) -> None:
        if self.recorder is None:
            return
        # An event exactly at the cutoff is still inside the window.
        cutoff = self.kernel.now - self.window
        sent_times = self.recorder.sent.times
        received_times = self.recorder.received.times
        sent = len(sent_times) - bisect_left(sent_times, cutoff)
        if sent == 0:
            self._update(0.0)
            return
        received = len(received_times) - bisect_left(received_times, cutoff)
        self._update(max(0, sent - received) / sent)


class FaultReporterSC(SystemCondition):
    """The set of currently-active injected (or detected) faults.

    ``value`` is the number of active faults, so contracts can use
    plain threshold predicates.  The
    fault layer (:class:`repro.faults.injector.FaultInjector`) calls
    :meth:`fault_started` / :meth:`fault_cleared` on every windowed
    fault edge, standing in for the out-of-band resource-status
    monitoring a deployed system would run.  Contracts observing this
    condition can shed load the instant an outage begins rather than
    waiting for loss statistics to accumulate.
    """

    def __init__(self, kernel: Kernel, name: str = "faults") -> None:
        super().__init__(kernel, name, initial=0)
        self._active: List[str] = []
        #: Total fault windows ever reported (observability).
        self.faults_seen = 0

    def fault_started(self, label: str) -> None:
        if label not in self._active:
            self._active.append(label)
            self.faults_seen += 1
            self._update(len(self._active))

    def fault_cleared(self, label: str) -> None:
        if label in self._active:
            self._active.remove(label)
            self._update(len(self._active))

