"""Liveliness lease monitoring with writer-death detection.

The broker runs one :class:`LivelinessMonitor` per leased writer.
Writers assert liveliness with periodic heartbeats; when a full lease
elapses without one, the monitor declares the writer dead (one
``liveliness-lost`` transition) and the broker fails ownership over to
the next-strongest live writer.

Two-phase expiry — the same-tick edge case
------------------------------------------

Heartbeats arrive as network deliveries, and with coalesced timers a
heartbeat can land at *exactly* the simulated instant the lease
expires.  Kernel ties fire in schedule order, and the expiry timer was
scheduled a whole lease ago, so a naive monitor would run first, see a
stale ``last_heard`` and declare the writer dead — then process the
same-tick heartbeat, revive it, and later declare it dead *again*:
two lost transitions (a flap) for one actual death.

The monitor therefore never declares loss directly from the lease
timer.  When the deadline looks passed it schedules a zero-delay
*confirmation* event: zero-delay events sort after every already-queued
event at the same timestamp, so any heartbeat sharing the tick is
processed first.  The confirmation re-reads ``last_heard`` — if the
same-tick heartbeat arrived, the monitor simply re-arms; a writer that
genuinely went quiet gets exactly one lost transition, one lease after
its final heartbeat.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.sim.kernel import Kernel, ScheduledEvent

__all__ = ["LivelinessMonitor"]


class LivelinessMonitor:
    """Watch one writer's lease; fire callbacks on state transitions."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        lease: float,
        on_lost: Optional[Callable[["LivelinessMonitor"], None]] = None,
        on_revived: Optional[Callable[["LivelinessMonitor"], None]] = None,
    ) -> None:
        if lease <= 0:
            raise ValueError(f"lease must be positive, got {lease}")
        self.kernel = kernel
        self.name = name
        self.lease = float(lease)
        self.on_lost = on_lost
        self.on_revived = on_revived
        self.alive = True
        self.last_heard = kernel.now
        self.heartbeats = 0
        #: ("lost" | "revived", time) history, in order (test evidence).
        self.transitions: List[Tuple[str, float]] = []
        self._expiry: Optional[ScheduledEvent] = None
        self._stopped = False
        self._arm(self.last_heard + self.lease)

    # ------------------------------------------------------------------
    @property
    def lost_count(self) -> int:
        return sum(1 for kind, _ in self.transitions if kind == "lost")

    def heartbeat(self) -> None:
        """The writer asserted liveliness (heartbeat received)."""
        if self._stopped:
            return
        self.last_heard = self.kernel.now
        self.heartbeats += 1
        if not self.alive:
            self.alive = True
            self.transitions.append(("revived", self.kernel.now))
            tracer = self.kernel.tracer
            if tracer is not None:
                tracer.instant("pubsub", "liveliness.revived",
                               fields={"writer": self.name})
            if self.on_revived is not None:
                self.on_revived(self)
            self._arm(self.last_heard + self.lease)

    def stop(self) -> None:
        """Detach: pending timers become no-ops."""
        self._stopped = True
        if self._expiry is not None:
            self._expiry.cancel()
            self._expiry = None

    # ------------------------------------------------------------------
    # Lease timer (two-phase: check, then same-tick confirmation)
    # ------------------------------------------------------------------
    def _arm(self, deadline: float) -> None:
        if self._expiry is not None:
            self._expiry.cancel()
        self._expiry = self.kernel.schedule_at(deadline, self._on_expiry)

    def _on_expiry(self) -> None:
        self._expiry = None
        if self._stopped or not self.alive:
            return
        deadline = self.last_heard + self.lease
        if self.kernel.now < deadline:
            # A heartbeat advanced the deadline since this timer was
            # armed; chase the new one.
            self._arm(deadline)
            return
        # Deadline apparently passed — but a heartbeat may still be
        # queued at this very timestamp (it was scheduled before this
        # long-armed timer, so it fires after us).  Defer the verdict
        # behind the rest of the tick.
        self.kernel.schedule(0.0, self._confirm_expiry, self.last_heard)

    def _confirm_expiry(self, heard_at_check: float) -> None:
        if self._stopped or not self.alive:
            return
        if self.last_heard > heard_at_check:
            # A same-tick heartbeat beat us to it: still alive.
            self._arm(self.last_heard + self.lease)
            return
        self.alive = False
        self.transitions.append(("lost", self.kernel.now))
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("pubsub", "liveliness.lost",
                           fields={"writer": self.name,
                                   "last_heard": self.last_heard,
                                   "lease": self.lease})
        if self.on_lost is not None:
            self.on_lost(self)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "lost"
        return (f"<LivelinessMonitor {self.name} {state} "
                f"lease={self.lease:g} heard={self.last_heard:g}>")
