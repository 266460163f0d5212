"""Event-core determinism pin: a kernel-only workload, counted exactly.

Unlike the figures, this drives the simulation kernel itself — no
network stack, no ORB, no payload analysis — with a synthetic
workload shaped like the table 1 hot path: a farm of
periodic re-armed flows (traffic sources / transmitters), one
coalesced ticker fanning out to subscribers (the capacity farm's
frame clock), and timeout churn that schedules far-future events and
cancels them before they fire (transport retransmit timers).

It asserts no wall time.  The workload is a pure function of the
constants below, so it executes exactly ``EVENTS`` events, every time;
and its ~20 k far-future tombstones are the only figure-scale exercise
of the kernel's compaction path, so ``compactions`` must be positive.
The *timing* of this same schedule / rearm / cancel mix is
``sim.raw_events_per_s`` in ``perf/micro.py`` (``python3 perf/micro.py
--only sim.raw_events_per_s``), measured where host speed is accounted
for.
"""

from __future__ import annotations

from repro.sim import Kernel, PeriodicTicker

#: Events the workload executes (the heaviest table 1 arm's regime).
EVENTS = 883_192

HORIZON = 14.0
N_FLOWS = 64
N_SUBSCRIBERS = 32
N_CHURN = 8
REPEATS = 2


class _Flow:
    """A periodic source re-arming its own event (traffic-source shape)."""

    __slots__ = ("kernel", "period", "event")

    def __init__(self, kernel: Kernel, period: float) -> None:
        self.kernel = kernel
        self.period = period
        self.event = kernel.schedule(period, self.fire)

    def fire(self) -> None:
        self.kernel.rearm(self.event, self.period)


class _Churn:
    """Timeout churn: far-future timers armed and cancelled every tick.

    This is the retransmit-timer pattern — the timeout almost never
    fires, so it exercises tombstone handling and compaction rather
    than the dispatch fast path.
    """

    __slots__ = ("kernel", "pending")

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.pending = None
        kernel.schedule(0.001, self.fire)

    def fire(self) -> None:
        if self.pending is not None:
            self.pending.cancel()
        self.pending = self.kernel.schedule(5.0, self.timeout)
        self.kernel.schedule(0.002, self.fire)

    def timeout(self) -> None:  # pragma: no cover - cancelled before firing
        pass


def _run_workload() -> Kernel:
    kernel = Kernel()
    for i in range(N_FLOWS):
        _Flow(kernel, 0.0008 + i * 1e-5)
    ticker = PeriodicTicker(kernel, 1 / 30.0)
    for _ in range(N_SUBSCRIBERS):
        ticker.subscribe(lambda now: None)
    ticker.start()
    for _ in range(N_CHURN):
        _Churn(kernel)
    kernel.run(until=HORIZON)
    return kernel


def test_event_core_workload_is_exact():
    for _ in range(REPEATS):
        kernel = _run_workload()
        assert kernel.events_executed == EVENTS
        assert kernel.compactions > 0, (
            "the churn timers no longer reach the compaction path")
