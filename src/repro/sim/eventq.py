"""Stub: the pending set is one inline heap in :mod:`repro.sim.kernel`.

There is no backend to select and no environment variable is read.
This file exists only because ``perf/worker.py`` imports
``scheduler_from_env`` to label its records and ``perf/`` is editable
only by a benchmark-kind PR; ROADMAP item 1 drops that import and then
deletes this file.
"""


def scheduler_from_env() -> str:
    return "heap"
