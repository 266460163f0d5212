"""Runtime invariant checking.

``repro.check`` watches a running simulation for violated conservation
laws — packet accounting, ledger bounds, scheduler sanity — through
the same zero-cost trace layer the observability stack uses.  The
randomized soak campaign that hunts for configurations under which one
of those laws breaks drives figures, so it lives above them, in
:mod:`repro.experiments.soak`.

Public surface:

* :class:`~repro.check.world.World` — read-only object graph handed
  to checkers.
* :class:`~repro.check.invariants.CheckSuite` /
  :func:`~repro.check.invariants.default_suite` — the monitors,
  installable as one trace sink.
* :class:`~repro.check.invariants.InvariantViolation` — raised
  fail-fast at the first broken invariant.
"""

from repro.check.world import World
from repro.check.invariants import (
    CheckSuite,
    ContractChecker,
    InvariantChecker,
    InvariantViolation,
    PacketConservationChecker,
    QdiscAccountingChecker,
    ReserveLedgerChecker,
    RoutingChecker,
    ThreadStateChecker,
    TimeMonotonicityChecker,
    TokenBucketChecker,
    default_suite,
)

__all__ = [
    "World",
    "CheckSuite",
    "InvariantChecker",
    "InvariantViolation",
    "TimeMonotonicityChecker",
    "QdiscAccountingChecker",
    "TokenBucketChecker",
    "ReserveLedgerChecker",
    "PacketConservationChecker",
    "ContractChecker",
    "RoutingChecker",
    "ThreadStateChecker",
    "default_suite",
]
