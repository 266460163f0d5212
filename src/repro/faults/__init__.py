"""Declarative, deterministic fault injection.

``faults`` turns failure scenarios into data: a
:class:`~repro.faults.plan.FaultPlan` lists typed events (link flaps and
cuts, correlated loss bursts, bandwidth collapses, node
crash-and-restarts, RSVP state loss; :data:`~repro.faults.plan.KINDS`)
and a
:class:`~repro.faults.injector.FaultInjector` compiles them onto the
simulation kernel, tracing every lifecycle edge on the ``fault``
layer.  Plans are JSON-able so chaos arms ride the parallel
experiment engine and its result cache like any other scenario.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError

__all__ = ["FaultEvent", "FaultInjector", "FaultPlan", "FaultPlanError"]
