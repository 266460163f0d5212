"""Multi-stream capacity subsystem: the stream farm behind admission.

The paper's evaluation runs a *single* video stream against cross
traffic; this package scales that workload out.  A
:class:`~repro.scale.capacity_exp.CapacityArm` stands up N concurrent
MPEG sender/receiver pairs on a shared DiffServ/IntServ topology, with
per-stream RT-CORBA priority lanes and per-stream QuO contracts, behind
an :class:`~repro.scale.admission.AdmissionController` that accepts or
rejects each stream's CPU reserve and RSVP bandwidth request.  Rejected
streams fall back to best-effort (and, in the adaptive arm, shed load
through their frame-filtering contract instead of drowning the links).

The streams are the experiments' own
:class:`~repro.experiments.actors.AvVideoSender` /
:class:`~repro.experiments.actors.AvVideoReceiver` pair, and scheduling
is batched: the farm hands every sender one shared
:class:`~repro.sim.coalesce.PeriodicTicker`, so one kernel event per
frame interval drives them all and the event count stays O(ticks)
rather than O(streams x ticks) — what keeps N=64 tractable.
"""

from repro.scale.admission import (  # noqa: F401
    AdmissionController,
    AdmissionDecision,
)
from repro.scale.capacity_exp import (  # noqa: F401
    CapacityArm,
    CapacityResult,
    all_arms,
    fig9_stream_counts,
    run_capacity_experiment,
)
