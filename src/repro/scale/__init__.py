"""Admission control: the gate in front of a multi-stream farm.

:class:`~repro.scale.admission.AdmissionController` accepts or rejects
each stream's CPU reserve (utilization-bound test) and RSVP bandwidth
request (link-budget test along the forwarding route) before anything
is installed, so a rejected stream never touches the books.  The
figures that drive it — fig 9's capacity farm and fig 10's hybrid
scale sweep — are :mod:`repro.experiments.capacity_exp` and
:mod:`repro.experiments.scale_exp`; fig 12's broker books its reliable
matches through it too.

The package holds one module and belongs beside the manager in
:mod:`repro.core`.  It stays a package because the benchmark's
profiler books self time by package (``perf/layers.py``, whose package
set ``perf/selftest.py`` pins), so folding it into ``core`` waits on
that map changing (ROADMAP item 1(b)).
"""

from repro.scale.admission import (  # noqa: F401
    AdmissionController,
    AdmissionDecision,
)
