"""Kernel-level timer coalescing.

PR 4's ``FrameClock`` showed that N periodic actors sharing one kernel
event per tick beats N private timers by an order of magnitude in
scheduler traffic.  This module generalizes that trick to the kernel
layer, where any subsystem can use it:

:class:`PeriodicTicker`
    One periodic kernel event fanned out to many subscribers — the
    FrameClock pattern, now with an allocation-free re-armed tick event
    (:meth:`~repro.sim.kernel.Kernel.rearm`).  Every A/V video sender
    ticks on one: its own, or the one a stream farm (``repro.scale``)
    shares among all its senders.

:class:`TickCoalescer`
    Batches *arbitrary one-shot* wakeups onto a shared tick grid: every
    callback whose requested time quantizes to the same tick shares a
    single kernel event.  Wakeups are quantized *up* (never early), so
    deadlines are respected at the cost of up to one quantum of added
    latency — the classic timer-coalescing trade.

Determinism contract
--------------------

Ties cannot be reordered by coalescing.  Within one tick, callbacks run
in registration order, and registration order is itself deterministic;
the shared tick event occupies a single ``(time, seq)`` slot in the
kernel, so its position relative to other same-time events is fixed by
when the *first* wakeup for that tick was registered.  The property
suite (``tests/properties/test_event_queue.py``) pins both facts, and
pins that a re-armed ticker is dispatch-identical to one that
re-schedules a fresh event every tick.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Kernel, ScheduledEvent

TickCallback = Callable[[float], None]


class PeriodicTicker:
    """One periodic kernel event fanned out to many subscribers.

    With one timer per periodic actor, every interval costs a heap
    push *and* pop per actor — at N=64 actors and 30 Hz that is ~4k
    heap operations per simulated second before any real work.  A
    shared ticker dispatches every subscriber from a single kernel
    event per tick, keeping the scheduling cost O(ticks) rather than
    O(actors x ticks).

    Subscription order is the dispatch order, so results stay
    deterministic at any subscriber count; subscribers registered
    during a tick are picked up from the next tick on.
    """

    __slots__ = ("kernel", "interval", "ticks", "_subscribers", "_event",
                 "_running")

    def __init__(self, kernel: Kernel, interval: float) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.kernel = kernel
        self.interval = float(interval)
        #: Ticks dispatched so far (observability).
        self.ticks = 0
        self._subscribers: List[TickCallback] = []
        self._event: Optional[ScheduledEvent] = None
        self._running = False

    def subscribe(self, callback: TickCallback) -> Callable[[], None]:
        """Register ``callback(now)``; returns a deregistration function."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    @property
    def subscriber_count(self) -> int:
        return len(self._subscribers)

    def start(self) -> None:
        """First tick fires immediately, then every ``interval`` (idempotent)."""
        if self._running:
            return
        self._running = True
        self._event = self.kernel.schedule(0.0, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        event = self._event  # the handle firing now
        self.ticks += 1
        now = self.kernel.now
        # Snapshot so a callback subscribing mid-tick takes effect next
        # tick instead of mutating the list under iteration.
        for callback in tuple(self._subscribers):
            callback(now)
        if self._event is event:
            # Hot path: reuse the fired tick event.  rearm() draws a
            # fresh seq here, exactly where schedule() used to, so the
            # dispatch order is unchanged.
            self.kernel.rearm(event, self.interval)
        # Otherwise a callback stopped the ticker (and may have started
        # it again, arming a fresh first tick): this chain ends here.


class TickCoalescer:
    """Batch one-shot wakeups landing on the same tick into one event.

    Parameters
    ----------
    kernel:
        The simulation kernel.
    quantum:
        Tick-grid pitch in simulated seconds.  Requested times are
        rounded *up* to the next grid point (times already on the grid
        stay put), so a wakeup never fires early.
    """

    __slots__ = ("kernel", "quantum", "_pending", "ticks", "coalesced")

    def __init__(self, kernel: Kernel, quantum: float) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.kernel = kernel
        self.quantum = float(quantum)
        #: tick time -> callbacks registered for it, in arrival order.
        self._pending: Dict[float, List[Tuple[Callable[..., None],
                                              tuple]]] = {}
        #: Tick events dispatched (observability).
        self.ticks = 0
        #: Wakeups that shared an existing tick event (observability).
        self.coalesced = 0

    def quantize(self, time: float) -> float:
        """``time`` rounded up to the tick grid (grid points stay put).

        The tick is the smallest grid product ``k * quantum >= time``.
        ``ceil(time / quantum)`` can miss it by one either way, because
        the division and the product each round: step up if the product
        is early, down if the product below is already late enough.
        """
        quantum = self.quantum
        k = math.ceil(time / quantum)
        if k * quantum < time:
            k += 1
        elif (k - 1) * quantum >= time:
            k -= 1
        return k * quantum

    def call_at(self, time: float, callback: Callable[..., None],
                *args: Any) -> float:
        """Run ``callback(*args)`` at ``quantize(time)``; returns the tick.

        All callbacks quantized to one tick share a single kernel event
        and run in registration order within it.
        """
        tick = self.quantize(time)
        bucket = self._pending.get(tick)
        if bucket is None:
            self._pending[tick] = [(callback, args)]
            self.kernel.schedule_at(tick, self._fire, tick)
        else:
            bucket.append((callback, args))
            self.coalesced += 1
        return tick

    def call_after(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> float:
        """Run ``callback(*args)`` ``delay`` seconds from now, coalesced."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.kernel.now + delay, callback, *args)

    @property
    def pending_ticks(self) -> int:
        return len(self._pending)

    def _fire(self, tick: float) -> None:
        self.ticks += 1
        # Pop first: callbacks registering new wakeups for this same
        # tick time would be late, and quantize() of now lands them on
        # the *next* grid point anyway.
        callbacks = self._pending.pop(tick)
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("sim", "tick.coalesce",
                           fields={"batched": len(callbacks)})
        for callback, args in callbacks:
            callback(*args)
