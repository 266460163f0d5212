"""Discrete-event simulation kernel.

This package is the foundation of the reproduction: every host CPU,
network link, router queue, and middleware actor in :mod:`repro` runs on
the simulated clock provided here rather than on wall-clock time.  That
substitution is what makes a Python reproduction of a real-time systems
paper deterministic and laptop-scale (see DESIGN.md, section 2).

Public surface
--------------

``Kernel``
    The event loop: a simulated clock plus the pending callbacks, held
    in one ``heapq`` of ``(time, seq, event)`` tuples that the kernel
    pushes and pops inline.

``PeriodicTicker`` / ``TickCoalescer``
    Kernel-level timer coalescing: batch N same-tick wakeups into one
    kernel event (the FrameClock trick, generalized).

``Process``
    A generator-based coroutine executing on a kernel.  Processes yield
    :class:`Timeout` (or a bare number) or :class:`Signal` to suspend.

``Signal``
    A broadcast wake-up primitive with optional payload.

``RngRegistry``
    Named, independently seeded random streams so that adding a new
    stochastic component never perturbs existing ones.
"""

from repro.sim.coalesce import PeriodicTicker, TickCoalescer
from repro.sim.kernel import Kernel, ScheduledEvent, SimulationError
from repro.sim.process import (
    Process,
    ProcessError,
    Signal,
    Timeout,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "Kernel",
    "PeriodicTicker",
    "Process",
    "ProcessError",
    "RngRegistry",
    "ScheduledEvent",
    "Signal",
    "SimulationError",
    "TickCoalescer",
    "Timeout",
]
