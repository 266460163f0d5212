"""Reader-side sample caches: KEEP_LAST rings and bounded KEEP_ALL.

The history policy is a *local* resource decision (it never affects
matching): KEEP_LAST keeps the newest ``depth`` samples, silently
replacing the oldest; KEEP_ALL keeps everything up to ``depth`` as a
hard resource bound and *rejects* new samples beyond it — the DDS
RESOURCE_LIMITS behaviour, which is what makes reliable KEEP_ALL
endpoints claim reserve budget up front instead of growing without
bound.

The cache tracks its own high-water mark so the invariant checker can
assert the depth bound was never exceeded without replaying the run.
"""

from __future__ import annotations

from collections import deque
from typing import Any, List

from repro.pubsub.policies import KEEP_ALL, HistoryKind

__all__ = ["HistoryCache"]


class HistoryCache:
    """Bounded sample store implementing the history QoS."""

    __slots__ = ("kind", "depth", "_samples", "accepted", "replaced",
                 "rejected", "max_held")

    def __init__(self, kind: HistoryKind, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"history depth must be >= 1, got {depth}")
        self.kind = HistoryKind(kind)
        self.depth = int(depth)
        self._samples: deque = deque()
        #: Samples stored (including ones later replaced or taken).
        self.accepted = 0
        #: KEEP_LAST: oldest samples displaced by newer ones.
        self.replaced = 0
        #: KEEP_ALL: samples refused at the resource bound.
        self.rejected = 0
        #: High-water mark of the live store (checker evidence).
        self.max_held = 0

    def add(self, sample: Any) -> bool:
        """Store ``sample``; False if the resource bound refused it."""
        samples = self._samples
        held = len(samples)
        if held >= self.depth:
            if self.kind is KEEP_ALL:
                self.rejected += 1
                return False
            samples.popleft()
            self.replaced += 1
        else:
            held += 1
        samples.append(sample)
        self.accepted += 1
        if held > self.max_held:
            self.max_held = held
        return True

    def snapshot(self) -> List[Any]:
        """The stored samples, oldest first, without draining.

        TRANSIENT_LOCAL writers replay this to late-joining readers;
        the cache itself keeps serving subsequent joiners.
        """
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<HistoryCache {self.kind.name} depth={self.depth} "
                f"held={len(self._samples)} max={self.max_held}>")
