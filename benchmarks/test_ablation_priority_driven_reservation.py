"""Ablation: priority-driven reservation assignment (paper section 6).

"One promising research direction is to combine priority-based
mechanisms in conjunction with reservation mechanisms, using the
priority paradigm to drive who gets reservations and to what degree."

Three periodic tasks want more reserved CPU than exists.  Two
allocation policies are compared under saturating background load:

* arrival order — the tasks' policies carry no priority, so
  :meth:`EndToEndQoSManager.allocate_reservations` grants reserves
  first come, first served;
* priority order — each task's ``QosPolicy`` carries its CORBA
  priority, and the same call hands capacity out most-important-first.

Only the priority-driven allocation keeps the critical task's
deadlines once capacity runs out.

The arm lives in :mod:`repro.experiments.ablations` and its renderer
in :mod:`repro.experiments.reporting`; this file asserts the shape.
"""

from repro.experiments.ablations import deadline_misses

from _shared import regenerate


def test_ablation_priority_driven_reservation(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("ablation_priority_driven_reservation",),
        rounds=1, iterations=1)
    arrival, prioritized = (result.payload["response"] for result in results)

    # Arrival order starves the late-arriving critical task...
    assert deadline_misses(arrival["navigation"]) > 5
    # ...priority order protects it completely.
    assert deadline_misses(prioritized["navigation"]) == 0
    # Two reserved tasks share the boost band, so the mean response is
    # bounded by both compute demands — still inside the period.
    assert prioritized["navigation"].stats().mean < 1.0
    # Capacity is conserved: exactly one task loses out either way.
    assert deadline_misses(prioritized["logging"]) > 5
    assert deadline_misses(arrival["logging"]) == 0
