"""The declarative QoS policy vocabulary (DDS-style).

A :class:`QosPolicy` is a frozen record describing what one
endpoint *offers* (writers) or *requests* (readers):

* **reliability** — BEST_EFFORT datagrams vs RELIABLE delivery over
  the stream transport's RTO/retransmit machinery;
* **history** — KEEP_LAST (a depth-N ring) vs KEEP_ALL (bounded by
  ``depth`` as a resource limit rather than a replacement policy);
* **deadline** — maximum expected inter-sample period; the reader
  monitors it and publishes missed-deadline events;
* **latency_budget** — slack the endpoint grants the delivery path;
  budgets are *additive along a match* (writer slack + reader slack);
* **lease** — liveliness lease duration; a writer whose heartbeats go
  quiet for one lease is declared dead and loses ownership;
* **ownership/strength** — SHARED lets every matched writer deliver;
  EXCLUSIVE delivers only the strongest *live* writer per topic, with
  deterministic failover down the strength order;
* **durability** — VOLATILE samples exist only in flight;
  TRANSIENT_LOCAL writers keep a history-bounded cache of what they
  published and replay it to late-joining readers at match time.

``None`` for ``deadline`` or ``lease`` means *infinite* (unmonitored),
matching the DDS defaults.  Policies pickle via a constructor call so
payload bytes are identical at any worker count.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, Optional

__all__ = ["Reliability", "HistoryKind", "OwnershipKind", "Durability",
           "QosPolicy"]


class Reliability(IntEnum):
    """Delivery guarantee; RELIABLE offers strictly more."""

    BEST_EFFORT = 0
    RELIABLE = 1


class HistoryKind(IntEnum):
    """What the reader cache does when it is full."""

    KEEP_LAST = 0
    KEEP_ALL = 1


class OwnershipKind(IntEnum):
    """Who may update a topic instance."""

    SHARED = 0
    EXCLUSIVE = 1


class Durability(IntEnum):
    """Do samples outlive their send; TRANSIENT_LOCAL offers more."""

    VOLATILE = 0
    TRANSIENT_LOCAL = 1


# Read once per delivered or cached sample: module globals, not
# attribute loads on the classes, which ``EnumMeta.__getattr__`` slows
# (CPython 3.10 / 3.11).
KEEP_ALL = HistoryKind.KEEP_ALL
EXCLUSIVE = OwnershipKind.EXCLUSIVE


class QosPolicy:
    """One endpoint's declared QoS (immutable)."""

    __slots__ = ("reliability", "history", "depth", "deadline",
                 "latency_budget", "lease", "ownership", "strength",
                 "durability")

    def __init__(
        self,
        reliability: Reliability = Reliability.BEST_EFFORT,
        history: HistoryKind = HistoryKind.KEEP_LAST,
        depth: int = 8,
        deadline: Optional[float] = None,
        latency_budget: float = 0.0,
        lease: Optional[float] = None,
        ownership: OwnershipKind = OwnershipKind.SHARED,
        strength: int = 0,
        durability: Durability = Durability.VOLATILE,
    ) -> None:
        reliability = Reliability(reliability)
        history = HistoryKind(history)
        ownership = OwnershipKind(ownership)
        durability = Durability(durability)
        if depth < 1:
            raise ValueError(f"history depth must be >= 1, got {depth}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        if latency_budget < 0:
            raise ValueError(
                f"latency budget must be >= 0, got {latency_budget}")
        if lease is not None and lease <= 0:
            raise ValueError(f"lease must be positive, got {lease}")
        object.__setattr__(self, "reliability", reliability)
        object.__setattr__(self, "history", history)
        object.__setattr__(self, "depth", int(depth))
        object.__setattr__(
            self, "deadline", None if deadline is None else float(deadline))
        object.__setattr__(self, "latency_budget", float(latency_budget))
        object.__setattr__(
            self, "lease", None if lease is None else float(lease))
        object.__setattr__(self, "ownership", ownership)
        object.__setattr__(self, "strength", int(strength))
        object.__setattr__(self, "durability", durability)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"QosPolicy is immutable (tried to set {name!r})")

    def _key(self) -> tuple:
        return (self.reliability, self.history, self.depth, self.deadline,
                self.latency_budget, self.lease, self.ownership,
                self.strength, self.durability)

    def __reduce__(self):
        # Constructor-call reduce (see CapacityArm): payload bytes stay
        # identical at any worker count.
        return (self.__class__, self._key())

    def __repr__(self) -> str:  # pragma: no cover
        return (f"QosPolicy({self.reliability.name}, {self.history.name}"
                f"(depth={self.depth}), deadline={self.deadline}, "
                f"budget={self.latency_budget}, lease={self.lease}, "
                f"{self.ownership.name}(strength={self.strength}), "
                f"{self.durability.name})")

    def replace(self, **changes: Any) -> "QosPolicy":
        """A copy with the given fields replaced."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return QosPolicy(**{**fields, **changes})
