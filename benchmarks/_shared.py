"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures from
its entry in :data:`repro.experiments.scenario_registry.FIGURES`,
writes the paper-style rendering to ``results/<name>.txt``, prints it,
and asserts the qualitative shape criteria recorded in EXPERIMENTS.md.

:func:`regenerate` fans a figure's arms across the shared parallel
:class:`~repro.experiments.runner.ExperimentRunner` (worker count from
``REPRO_JOBS``, default: CPU count; result cache controlled by
``REPRO_CACHE``).  Nothing here keeps time: ``perf/`` is the repo's
only timing record.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import List, Optional

from repro.experiments.runner import ExperimentRunner, RunResult
from repro.experiments.scenario_registry import FIGURES

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

_runner: Optional[ExperimentRunner] = None


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Parallel workers and concurrent pytest sessions can publish the
    same artifact; the rename guarantees readers never observe an
    interleaved or truncated file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def publish(name: str, text: str) -> None:
    """Write a rendered table/figure to results/ and echo it."""
    atomic_write_text(RESULTS_DIR / f"{name}.txt", text + "\n")
    print(f"\n=== {name} ===\n{text}\n")


def shared_runner() -> ExperimentRunner:
    """The session-wide experiment runner (one pool config, shared cache)."""
    global _runner
    if _runner is None:
        _runner = ExperimentRunner()
    return _runner


def regenerate(name: str) -> List[RunResult]:
    """Run figure ``name`` from the table and publish its rendering.

    Returns the results in spec order (arm-major, sweep points
    ascending), which is the order the shape assertions unpack.
    """
    figure = FIGURES[name]
    results = shared_runner().run(figure.specs())
    publish(name, figure.render([result.payload for result in results]))
    return results
