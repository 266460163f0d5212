"""Named, independently seeded random streams.

Stochastic components (traffic generators, load generators, frame-size
models) each draw from their own stream, derived deterministically from
a root seed and the stream name.  Adding a new component therefore never
perturbs the draws seen by existing ones — essential when comparing
experiment arms that differ only in one mechanism.

A stream's seed is the first eight bytes of a SHA-256 digest.  ``sha256``
comes from the interpreter's built-in module (``_sha2`` on 3.12+,
``_sha256`` before), the lean-first chain ``random`` itself uses for
SHA-512; ``hashlib`` is the fallback for an interpreter built without
it.  ``import hashlib`` maps OpenSSL's libcrypto (~3.7 MB of RSS) into
every process that imports :mod:`repro`, and nothing here hashes enough
bytes to need it.  The digests are identical either way, so draws and
the result cache's keys (which hash with this ``sha256`` too) do not
depend on which module supplied it.
"""

from __future__ import annotations

import random
from typing import Dict

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def _derived_seed(material: str) -> int:
    return int.from_bytes(sha256(material.encode("utf-8")).digest()[:8], "big")


class RngRegistry:
    """Factory for per-component :class:`random.Random` streams.

    >>> reg = RngRegistry(seed=42)
    >>> a = reg.stream("cross-traffic")
    >>> b = reg.stream("cross-traffic")
    >>> a is b
    True
    >>> reg2 = RngRegistry(seed=42)
    >>> reg2.stream("cross-traffic").random() == \
        RngRegistry(seed=42).stream("cross-traffic").random()
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) stream for ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = random.Random(_derived_seed(f"{self.seed}:{name}"))
        self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """Derive a child registry (e.g. one per experiment arm)."""
        return RngRegistry(seed=_derived_seed(f"{self.seed}/{name}"))
