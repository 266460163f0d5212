"""Schedulable threads.

A :class:`SimThread` is the unit the CPU scheduler reasons about.  It
does not itself contain code: simulation processes *submit work* on
behalf of a thread via :meth:`repro.oskernel.cpu.CPU.submit` and wait
for the completion signal.  This mirrors how the middleware charges its
processing (marshaling, dispatch, image processing) to specific OS
threads with specific priorities.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.oskernel.cpu import CPU
    from repro.oskernel.reserve import Reserve


class ThreadState(enum.Enum):
    IDLE = "idle"  # no pending work
    READY = "ready"  # runnable, not on the CPU
    RUNNING = "running"
    SUSPENDED = "suspended"  # hard reserve depleted; waiting replenishment
    DEAD = "dead"  # killed; never runnable again


# The scheduler reads and writes thread states on every dispatch: module
# globals, not attribute loads on the class, which
# ``EnumMeta.__getattr__`` slows (CPython 3.10 / 3.11).
IDLE, READY, RUNNING, SUSPENDED, DEAD = (
    ThreadState.IDLE, ThreadState.READY, ThreadState.RUNNING,
    ThreadState.SUSPENDED, ThreadState.DEAD)


class SimThread:
    """A simulated OS thread.

    Parameters
    ----------
    cpu:
        The CPU this thread is bound to (no migration; the paper's
        testbed machines are uniprocessors).
    priority:
        Native priority; higher runs first.
    name:
        Diagnostic label.
    """

    def __init__(self, cpu: "CPU", priority: int, name: str = "") -> None:
        self.tid = cpu.kernel.ids("thread")()
        self.cpu = cpu
        self.name = name or f"thread-{self.tid}"
        self._priority = int(priority)
        self.state = IDLE
        #: Attached CPU reserve, if any (see repro.oskernel.reserve).
        self.reserve: Optional["Reserve"] = None
        #: Total CPU seconds consumed (observability).
        self.cpu_time = 0.0
        cpu.register(self)

    # ------------------------------------------------------------------
    @property
    def priority(self) -> int:
        return self._priority

    def set_priority(self, priority: int) -> None:
        """Change the native priority; takes effect immediately.

        This is the hook RT-CORBA uses when a request carrying a
        propagated priority arrives (CLIENT_PROPAGATED model).
        """
        priority = int(priority)
        if priority == self._priority:
            return
        self._priority = priority
        self.cpu.on_priority_change(self)
        self.cpu.reschedule()

    def kill(self) -> None:
        """Terminate the thread permanently.

        Pending work is discarded, an attached reserve is cancelled
        (releasing its admitted utilization), and the CPU's dispatch
        structures are purged so a stale lazy-heap entry can never run
        a dead thread.  Idempotent.
        """
        if self.state is DEAD:
            return
        self.cpu.on_thread_killed(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SimThread {self.name!r} prio={self._priority} "
            f"state={self.state.value}>"
        )
