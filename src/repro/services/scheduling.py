"""Static real-time scheduling service (TAO's RMS scheduler).

"TAO's run-time scheduler maps application QoS requirements (such as
bounding end-to-end latency and meeting periodic scheduling deadlines)
to ORB endsystem/network resources ... using either static and/or
dynamic real-time scheduling strategies."

This module implements the *static* strategy: tasks declare (period,
worst-case execution time); the service

* checks admissibility with the Liu-Layland utilization bound, falling
  back to the exact response-time analysis when the bound is
  inconclusive;
* assigns **rate-monotonic** CORBA priorities — shorter period, higher
  priority — spread across the RT-CORBA range so downstream mappings
  (native priorities, DSCPs) have room to differentiate.

The produced CORBA priorities plug directly into a
:class:`repro.core.policies.QosPolicy`'s ``priority`` and thread-pool
lanes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.orb.rt import MAX_PRIORITY, MIN_PRIORITY


class SchedulingError(RuntimeError):
    """Raised when a task set cannot be admitted."""


class TaskDescriptor:
    """One periodic task's declared timing behaviour."""

    __slots__ = ("name", "period", "wcet", "corba_priority",
                 "response_time")

    def __init__(self, name: str, period: float, wcet: float) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if wcet <= 0:
            raise ValueError(f"wcet must be positive, got {wcet}")
        if wcet > period:
            raise ValueError(
                f"task {name!r}: wcet {wcet} exceeds period {period}"
            )
        self.name = name
        self.period = float(period)
        self.wcet = float(wcet)
        #: Assigned by the scheduler.
        self.corba_priority: Optional[int] = None
        #: Worst-case response time from the exact analysis.
        self.response_time: Optional[float] = None

    @property
    def utilization(self) -> float:
        return self.wcet / self.period

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TaskDescriptor({self.name!r}, T={self.period}, C={self.wcet})"
        )


class RmsScheduler:
    """Admission control and rate-monotonic priority assignment."""

    def __init__(self) -> None:
        self._tasks: Dict[str, TaskDescriptor] = {}

    # ------------------------------------------------------------------
    def register(self, name: str, period: float, wcet: float) -> TaskDescriptor:
        if name in self._tasks:
            raise SchedulingError(f"task {name!r} already registered")
        task = TaskDescriptor(name, period, wcet)
        self._tasks[name] = task
        return task

    def unregister(self, name: str) -> None:
        self._tasks.pop(name, None)

    @property
    def tasks(self) -> List[TaskDescriptor]:
        return list(self._tasks.values())

    @property
    def total_utilization(self) -> float:
        return sum(task.utilization for task in self._tasks.values())

    # ------------------------------------------------------------------
    # Admission tests
    # ------------------------------------------------------------------
    def liu_layland_bound(self) -> float:
        """n(2^(1/n) - 1): sufficient (not necessary) for RMS."""
        n = len(self._tasks)
        if n == 0:
            return 1.0
        return n * (2 ** (1.0 / n) - 1)

    def schedulable(self) -> bool:
        """True if every task provably meets its deadline under RMS.

        Uses the Liu-Layland bound as a fast path and the exact
        response-time analysis (Joseph & Pandya) when utilization is
        above the bound but at most 1.
        """
        if not self._tasks:
            return True
        utilization = self.total_utilization
        if utilization <= self.liu_layland_bound() + 1e-12:
            self._compute_response_times()
            return True
        if utilization > 1.0 + 1e-12:
            return False
        return self._compute_response_times()

    def _rate_monotonic_order(self) -> List[TaskDescriptor]:
        return sorted(self._tasks.values(), key=lambda task: task.period)

    def _compute_response_times(self) -> bool:
        """Exact test: iterate R = C + sum(ceil(R/Tj) * Cj) to fixpoint."""
        ordered = self._rate_monotonic_order()
        feasible = True
        for index, task in enumerate(ordered):
            higher = ordered[:index]
            response = task.wcet
            for _ in range(1000):
                # ceil with a small *negative* tolerance: float error
                # must not bump an exact integer ratio (e.g. R=2, T=1)
                # up a whole period of interference.
                interference = sum(
                    math.ceil(response / h.period - 1e-9) * h.wcet
                    for h in higher
                )
                updated = task.wcet + interference
                if abs(updated - response) < 1e-12:
                    break
                response = updated
                if response > task.period:
                    break
            task.response_time = response
            if response > task.period + 1e-12:
                feasible = False
        return feasible

    # ------------------------------------------------------------------
    # Priority assignment
    # ------------------------------------------------------------------
    def assign_priorities(
        self,
        floor: int = 1000,
        ceiling: int = 30000,
    ) -> Dict[str, int]:
        """Assign RMS CORBA priorities; raises if not schedulable.

        Shorter-period tasks receive higher priorities, evenly spread
        over [floor, ceiling] so there is headroom below for
        best-effort activity and above for emergency traffic.
        """
        if not MIN_PRIORITY <= floor < ceiling <= MAX_PRIORITY:
            raise ValueError(
                f"bad priority range [{floor}, {ceiling}]"
            )
        if not self.schedulable():
            raise SchedulingError(
                f"task set is not RMS-schedulable "
                f"(utilization {self.total_utilization:.3f})"
            )
        ordered = self._rate_monotonic_order()
        count = len(ordered)
        assignment: Dict[str, int] = {}
        for index, task in enumerate(ordered):
            if count == 1:
                priority = ceiling
            else:
                # index 0 = shortest period = highest priority.
                fraction = 1.0 - index / (count - 1)
                priority = round(floor + fraction * (ceiling - floor))
            task.corba_priority = priority
            assignment[task.name] = priority
        return assignment
