"""Which layer a profiled function belongs to, decided by its source path.

Layers are the packages under ``src/repro`` (with ``net/routing.py``
split out, as ROADMAP does), plus ``stdlib`` for Python code outside
``repro`` (standard library and this harness) and ``builtin`` for C
functions.  ``perf/selftest.py`` fails when a package appears under
``src/repro`` that is not named here, so a new layer cannot vanish
into ``stdlib``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.join(ROOT, "src", "repro")

PACKAGE_LAYERS = (
    "sim", "net", "oskernel", "orb", "quo", "avstreams", "media", "core",
    "fluid", "scale", "pubsub", "faults", "check", "obs", "services",
    "experiments",
)
LAYERS = PACKAGE_LAYERS + ("routing", "stdlib", "builtin")

_PREFIX = PACKAGE_ROOT + os.sep
_ROUTING = os.path.join("net", "routing.py")


def layer_of(code: Any) -> str:
    """Layer of one ``cProfile`` entry's ``code`` (code object or str)."""
    if isinstance(code, str):
        return "builtin"
    filename = code.co_filename
    if not filename.startswith(_PREFIX):
        return "stdlib"
    rel = filename[len(_PREFIX):]
    if rel == _ROUTING:
        return "routing"
    package, sep, _ = rel.partition(os.sep)
    # repro/cli.py, repro/__init__.py: the experiments' front end.
    return package if sep else "experiments"


def attribute(stats: Iterable[Any]) -> Dict[str, Dict[str, float]]:
    """Per-layer self time, share and calls from ``Profile.getstats()``.

    ``inlinetime`` is a function's own time with its callees excluded,
    so the layer sums partition the profiled wall exactly.
    """
    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    for entry in stats:
        row = layers[layer_of(entry.code)]
        row["self_s"] += entry.inlinetime
        row["calls"] += entry.callcount
    total = sum(row["self_s"] for row in layers.values())
    for row in layers.values():
        row["self_share"] = row["self_s"] / total if total else 0.0
    return layers
