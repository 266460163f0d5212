"""Resource-kernel CPU reserves (TimeSys Linux model, paper section 3.3).

A reserve is a (compute time *C*, period *T*) pair.  Once admitted, the
attached thread is guaranteed *C* seconds of CPU in every period of
length *T*: while budget remains, the thread runs in a *boost band*
above all ordinary priorities (so competing load cannot preempt it, per
the paper: "for every period, the application will have the requested
amount of CPU compute time, and will not be pre-empted").

Enforcement policy on depletion:

``EnforcementPolicy.HARD``
    The thread is suspended until the next replenishment (strict
    metering; background work cannot overrun its reservation).

``EnforcementPolicy.SOFT``
    The thread keeps running at its native priority, competing like any
    other thread, until the budget replenishes.

Admission control is utilization-based: the manager admits a new
reserve only if the summed utilization ``sum(C_i / T_i)`` stays within
the configured bound.

Replenishment is *lazy*: the budget is topped up whenever the scheduler
observes that a period boundary has passed (``boost_deadline`` at each
dispatch decision, ``sync`` at a wake-up), and a wake-up
event is armed only while a depleted reserve has work waiting.  An idle
reserve therefore schedules no events at all — important so that
simulations terminate when all real work drains.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.sim.quantize import EPSILON, clamp
from repro.oskernel.cpu import CPU
from repro.oskernel.thread import READY, SUSPENDED, SimThread


class AdmissionError(RuntimeError):
    """Raised when a reserve request would exceed the utilization bound."""


class EnforcementPolicy(enum.Enum):
    HARD = "hard"
    SOFT = "soft"


# Read on every charge of a reserved thread: a module global, not an
# attribute load on the class, which ``EnumMeta.__getattr__`` slows
# (CPython 3.10 / 3.11).
HARD = EnforcementPolicy.HARD


class Reserve:
    """An admitted CPU reservation bound to one thread.

    Created via :meth:`ReserveManager.request`; do not instantiate
    directly.
    """

    #: Priority band added on top of native priority while budget remains.
    boost_band = 1_000_000.0

    #: Budget below one simulated nanosecond counts as depleted; float
    #: rounding in time subtraction otherwise leaves denormal remainders
    #: that would schedule zero-length CPU slices forever.  Shared with
    #: the token-bucket layer via :mod:`repro.sim.quantize` so every
    #: budget accumulator in the stack rounds the same way.
    budget_epsilon = EPSILON

    def __init__(
        self,
        manager: "ReserveManager",
        thread: SimThread,
        compute: float,
        period: float,
        policy: EnforcementPolicy,
    ) -> None:
        self._manager = manager
        self._kernel = manager.kernel
        self.reserve_id = self._kernel.ids("reserve")()
        self.thread = thread
        self.compute = float(compute)
        self.period = float(period)
        self.policy = policy
        self.budget_remaining = float(compute)
        self.active = True
        #: Replenishment count (observability).
        self.replenishments = 0
        #: Total CPU seconds consumed against this reserve.
        self.consumed_total = 0.0
        self._start = self._kernel.now
        self._last_boundary = 0
        self._wakeup: Optional[ScheduledEvent] = None
        thread.reserve = self
        thread.cpu.on_reserve_attached(thread)

    # ------------------------------------------------------------------
    @property
    def is_hard(self) -> bool:
        return self.policy is HARD

    @property
    def utilization(self) -> float:
        return self.compute / self.period

    def boost_deadline(self, now: float) -> Optional[float]:
        """The deadline the thread runs to in the boost band at ``now``
        (the kernel's clock), or ``None`` once the budget is spent.

        Syncs first, so a passed period boundary replenishes the budget.
        The deadline is the next period boundary, when the budget must
        have been deliverable.  Budgeted reserves are scheduled
        **earliest deadline first** within the boost band — the
        resource-kernel discipline for which the admission test
        ``sum(C/T) <= bound`` is provably sufficient.  The CPU ranks a
        budgeted thread at ``2*boost_band - deadline``, so any budgeted
        reserve outranks every normal thread and earlier deadlines rank
        higher; a fixed-priority-within-band scheme (FIFO or even RM)
        can leave an admitted short-period reserve short in its first
        period.  A spent soft reserve's thread competes at its native
        priority; a spent hard one is suspended by the CPU.

        The one budget read per scheduling decision: the period index
        is computed once for the sync and the deadline alike.
        """
        boundary = math.floor((now - self._start) / self.period + 1e-9)
        if boundary > self._last_boundary and self.active:
            self._replenish(boundary)
        if self.budget_remaining > self.budget_epsilon:
            return max(now, self._start + (boundary + 1) * self.period)
        return None

    # ------------------------------------------------------------------
    # Budget lifecycle
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Top up the budget if one or more period boundaries passed.

        Idempotent and cheap.  A dispatch decision syncs through
        :meth:`boost_deadline`; this is the wake-up's path, so the
        budget is always current without needing periodic events.
        """
        if not self.active:
            return
        boundary = self._boundary_index(self._kernel.now)
        if boundary > self._last_boundary:
            self._replenish(boundary)

    def _replenish(self, boundary: int) -> None:
        """Refill the budget for period ``boundary`` (one or more
        boundaries after the last one seen)."""
        delta = boundary - self._last_boundary
        self.replenishments += delta
        self._last_boundary = boundary
        self.budget_remaining = self.compute
        if self.thread.state is SUSPENDED:
            self.thread.state = READY
        tracer = self._kernel.tracer
        if tracer is not None:
            tracer.instant("os", "reserve.replenish",
                           fields={"reserve": self.reserve_id,
                                   "thread": self.thread.name,
                                   "periods": delta, "budget": self.compute})

    def consume(self, cpu_seconds: float) -> bool:
        """Charge ``cpu_seconds`` against the budget.

        Returns ``True`` if the budget is now depleted.  Called by the
        CPU while charging the running thread.
        """
        self.consumed_total += cpu_seconds
        self.budget_remaining = clamp(
            self.budget_remaining - cpu_seconds, 0.0, self.compute)
        if self.budget_remaining <= self.budget_epsilon:
            self.budget_remaining = 0.0
            tracer = self._kernel.tracer
            if tracer is not None:
                tracer.instant("os", "reserve.deplete",
                               fields={"reserve": self.reserve_id,
                                       "thread": self.thread.name,
                                       "policy": self.policy._value_,
                                       "consumed": self.consumed_total})
            return True
        return False

    def next_boundary_time(self) -> float:
        """Simulated time of the next period boundary after now."""
        now = self._kernel.now
        boundary = self._boundary_index(now) + 1
        return max(now, self._start + boundary * self.period)

    def arm_wakeup(self) -> None:
        """Schedule a scheduler kick at the next period boundary.

        Called when a depleted reserve still has pending work: at the
        boundary the budget returns and the thread must immediately
        regain its boost (possibly preempting whoever runs then).
        """
        if not self.active or self._wakeup is not None:
            return
        self.sync()
        self._wakeup = self._kernel.schedule_at(
            self.next_boundary_time(), self._on_wakeup
        )

    def cancel(self) -> None:
        """Release the reservation and its admitted utilization."""
        if not self.active:
            return
        self.active = False
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None
        self.thread.reserve = None
        if self.thread.state is SUSPENDED:
            self.thread.state = READY
        self.thread.cpu.on_reserve_detached(self.thread)
        self._manager.release(self)
        self.thread.cpu.reschedule()

    # ------------------------------------------------------------------
    def _boundary_index(self, now: float) -> int:
        # The 1e-9 guard absorbs float error in the division so that a
        # wake-up firing exactly at a boundary lands in the new period.
        # ``boost_deadline`` inlines the same expression.
        return math.floor((now - self._start) / self.period + 1e-9)

    def _on_wakeup(self) -> None:
        self._wakeup = None
        if not self.active:
            return
        self.sync()
        self.thread.cpu.reschedule()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Reserve {self.reserve_id} C={self.compute} T={self.period} "
            f"budget={self.budget_remaining:.6f} {self.policy.value}>"
        )


class ReserveManager:
    """Admission control and bookkeeping for one CPU's reserves.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    cpu:
        The CPU whose capacity is being reserved.
    utilization_bound:
        Maximum summed ``C/T`` the manager will admit.  Defaults to 0.9,
        leaving headroom for unreserved activity, mirroring resource
        kernels that never hand out the full processor.
    """

    def __init__(
        self, kernel: Kernel, cpu: CPU, utilization_bound: float = 0.9
    ) -> None:
        if not 0 < utilization_bound <= 1.0:
            raise ValueError(
                f"utilization bound must be in (0, 1], got {utilization_bound}"
            )
        self.kernel = kernel
        self.cpu = cpu
        self.utilization_bound = utilization_bound
        self._reserves: List[Reserve] = []

    # ------------------------------------------------------------------
    @property
    def total_utilization(self) -> float:
        return sum(r.utilization for r in self._reserves)

    def request(
        self,
        thread: SimThread,
        compute: float,
        period: float,
        policy: EnforcementPolicy = EnforcementPolicy.SOFT,
    ) -> Reserve:
        """Admit a (C, T) reserve for ``thread`` or raise AdmissionError."""
        if compute <= 0 or period <= 0:
            raise ValueError(
                f"compute and period must be positive (C={compute}, T={period})"
            )
        if compute > period:
            raise ValueError(
                f"compute time {compute} exceeds period {period}"
            )
        if thread.cpu is not self.cpu:
            raise ValueError(
                f"thread {thread.name!r} is not bound to CPU {self.cpu.name!r}"
            )
        if thread.reserve is not None:
            raise AdmissionError(
                f"thread {thread.name!r} already holds a reserve"
            )
        new_utilization = self.total_utilization + compute / period
        if new_utilization > self.utilization_bound + 1e-12:
            raise AdmissionError(
                f"reserve C={compute} T={period} would raise utilization to "
                f"{new_utilization:.3f} > bound {self.utilization_bound:.3f}"
            )
        reserve = Reserve(self, thread, compute, period, policy)
        self._reserves.append(reserve)
        self.cpu.reschedule()
        return reserve

    def release(self, reserve: Reserve) -> None:
        """Forget an admitted reserve (called from Reserve.cancel)."""
        try:
            self._reserves.remove(reserve)
        except ValueError:
            pass
