"""Event-core microbenchmark: raw scheduler throughput.

Unlike the figure benchmarks, this one measures the simulation kernel
itself — no network stack, no ORB, no payload analysis — on a
synthetic workload shaped like the table 1 hot path: a farm of
periodic re-armed flows (traffic sources / transmitters), one
coalesced ticker fanning out to subscribers (the capacity farm's
frame clock), and timeout churn that schedules far-future events and
cancels them before they fire (transport retransmit timers).

The workload is sized to the heaviest table 1 arm (~875 k executed
events) and must clear two bars, asserted here (the timing record
itself is ``perf/``'s ``sim.raw_events_per_s``):

* the run finishes in under 3 s serial (one worker, one process);
* throughput is at least 5x the pre-rewrite core.  The old
  binary-heap core moved the whole figure suite at ~166 k events/s
  overall (11.34 M events in 68.2 s of figure wall time, table 1
  itself at 196 k events/s) — that number is frozen below as the
  comparison point.
"""

from __future__ import annotations

import time

from repro.sim import Kernel, PeriodicTicker
from repro.sim.eventq import scheduler_from_env

#: Overall events/s of the figure suite on the pre-rewrite heap core
#: (measured at the fig9 capacity PR).  The acceptance bar is 5x this.
PRE_REWRITE_EPS = 166_000
SPEEDUP_FLOOR = 5.0

#: Serial wall-clock budget for the table 1-scale workload.
WALL_BUDGET_SECONDS = 3.0

#: The heaviest table 1 arm executes ~875 k events; the synthetic
#: horizon below lands in the same regime and this floor keeps the
#: workload honest if the mix is ever edited.
MIN_EVENTS = 800_000

HORIZON = 14.0
N_FLOWS = 64
N_SUBSCRIBERS = 32
N_CHURN = 8
REPEATS = 5


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
    fires, so it exercises tombstone handling and the far-heap rather
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


def _run_workload(scheduler: str) -> tuple[int, float]:
    """One serial run; returns (events executed, wall seconds)."""
    kernel = Kernel(scheduler=scheduler)
    for i in range(N_FLOWS):
        _Flow(kernel, 0.0008 + i * 1e-5)
    ticker = PeriodicTicker(kernel, 1 / 30.0)
    for _ in range(N_SUBSCRIBERS):
        ticker.subscribe(lambda now: None)
    ticker.start()
    for _ in range(N_CHURN):
        _Churn(kernel)
    started = time.perf_counter()
    kernel.run(until=HORIZON)
    return kernel.events_executed, time.perf_counter() - started


def test_event_core_throughput(benchmark):
    scheduler = scheduler_from_env()
    samples = []

    def once():
        samples.append(_run_workload(scheduler))

    # The bars use the in-run walls (dispatch loop only, best of
    # REPEATS); the fixture wrapper keeps this file in the
    # ``--benchmark-only`` CI selection alongside the figure benches.
    benchmark.pedantic(once, rounds=REPEATS, iterations=1)

    events = samples[0][0]
    assert all(ran == events for ran, _ in samples), (
        "workload is non-deterministic")
    best_wall = min(wall for _, wall in samples)
    eps = events / best_wall
    print(f"\nevent_core[{scheduler}]: {events} events in "
          f"{best_wall:.3f}s = {eps / 1e3:.0f}k events/s "
          f"({eps / PRE_REWRITE_EPS:.1f}x pre-rewrite)")

    assert events >= MIN_EVENTS, (
        f"workload shrank to {events} events; not table 1-scale any more")
    assert best_wall < WALL_BUDGET_SECONDS, (
        f"table 1-scale workload took {best_wall:.2f}s serial, "
        f"budget is {WALL_BUDGET_SECONDS}s")
    assert eps >= SPEEDUP_FLOOR * PRE_REWRITE_EPS, (
        f"{eps / 1e3:.0f}k events/s is below "
        f"{SPEEDUP_FLOOR}x the pre-rewrite core "
        f"({PRE_REWRITE_EPS / 1e3:.0f}k events/s)")
