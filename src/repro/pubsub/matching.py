"""RxO (offered-vs-requested) compatibility matching.

A writer *offers* a :class:`~repro.pubsub.policies.QosPolicy`; a
reader *requests* one.  A match forms only if every RxO policy is
compatible, following the DDS lattice laws:

* **reliability** — offered must be at least as strong as requested
  (RELIABLE ⊒ BEST_EFFORT).  Enumerated in
  :data:`RELIABILITY_COMPAT`.
* **durability** — offered must be at least as strong as requested
  (TRANSIENT_LOCAL ⊒ VOLATILE): a reader asking for late-joiner
  catch-up needs a writer that actually caches what it published.
  Enumerated in :data:`DURABILITY_COMPAT`.
* **ownership** — kinds must be *equal*; a reader expecting exclusive
  arbitration cannot consume a shared topic and vice versa.
  Enumerated in :data:`OWNERSHIP_COMPAT`.
* **deadline** — the writer must promise updates at least as often as
  the reader expects: offered period <= requested period, with
  ``None`` = infinite.
* **liveliness lease** — the writer must assert liveliness at least
  as often as the reader requires: offered lease <= requested lease,
  ``None`` = infinite.
* **latency budget** — never blocks a match; the budgets are
  *additive along the match*: the path may consume
  ``offered + requested`` seconds of slack before the delivery counts
  as a budget violation.
* **history** — deliberately absent: history is a local resource
  policy, never part of compatibility (pinned by the property suite).

The whole check is a pure function of the two policies — no clocks,
no state, no I/O — so it is exhaustively property-testable
(``tests/pubsub/test_matching_properties.py``) and the enum
cross-product has a pinned table test that turns any matrix edit into
a visible diff.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Optional, Tuple

from repro.pubsub.policies import (Durability, OwnershipKind, QosPolicy,
                                   Reliability)

__all__ = [
    "MatchResult",
    "RELIABILITY_COMPAT",
    "DURABILITY_COMPAT",
    "OWNERSHIP_COMPAT",
    "rxo_check",
]

#: (offered, requested) -> compatible.  Offered must dominate: a
#: RELIABLE writer satisfies any reader; a BEST_EFFORT writer only a
#: BEST_EFFORT reader.
RELIABILITY_COMPAT: Dict[Tuple[Reliability, Reliability], bool] = {
    (Reliability.BEST_EFFORT, Reliability.BEST_EFFORT): True,
    (Reliability.BEST_EFFORT, Reliability.RELIABLE): False,
    (Reliability.RELIABLE, Reliability.BEST_EFFORT): True,
    (Reliability.RELIABLE, Reliability.RELIABLE): True,
}

#: (offered, requested) -> compatible.  Offered must dominate: a
#: TRANSIENT_LOCAL writer satisfies any reader; a VOLATILE writer
#: cannot serve a reader that requested catch-up.
DURABILITY_COMPAT: Dict[Tuple[Durability, Durability], bool] = {
    (Durability.VOLATILE, Durability.VOLATILE): True,
    (Durability.VOLATILE, Durability.TRANSIENT_LOCAL): False,
    (Durability.TRANSIENT_LOCAL, Durability.VOLATILE): True,
    (Durability.TRANSIENT_LOCAL, Durability.TRANSIENT_LOCAL): True,
}

#: (offered, requested) -> compatible.  Kinds must agree exactly.
OWNERSHIP_COMPAT: Dict[Tuple[OwnershipKind, OwnershipKind], bool] = {
    (OwnershipKind.SHARED, OwnershipKind.SHARED): True,
    (OwnershipKind.SHARED, OwnershipKind.EXCLUSIVE): False,
    (OwnershipKind.EXCLUSIVE, OwnershipKind.SHARED): False,
    (OwnershipKind.EXCLUSIVE, OwnershipKind.EXCLUSIVE): True,
}

#: The verdict for one offered/requested pair.
#:
#: ``compatible``         every RxO policy agreed.
#: ``failed``             tuple of policy names that refused the match,
#:                        in canonical order (empty when compatible).
#: ``effective_deadline`` the period the reader's monitor should run
#:                        at (the requested deadline; None = none).
#: ``effective_budget``   offered + requested latency budget — the
#:                        total slack the delivery path may consume.
MatchResult = namedtuple(
    "MatchResult",
    ["compatible", "failed", "effective_deadline", "effective_budget"])

#: Canonical policy evaluation order (stable ``failed`` tuples).
_POLICY_ORDER = ("reliability", "durability", "ownership", "deadline",
                 "liveliness")


def _leq_with_infinity(offered: Optional[float],
                       requested: Optional[float]) -> bool:
    """``offered <= requested`` where ``None`` means infinity."""
    if requested is None:
        return True
    if offered is None:
        return False
    return offered <= requested


def rxo_check(offered: QosPolicy, requested: QosPolicy) -> MatchResult:
    """Pure RxO compatibility verdict for one writer/reader pair."""
    verdicts = {
        "reliability": RELIABILITY_COMPAT[
            (offered.reliability, requested.reliability)],
        "durability": DURABILITY_COMPAT[
            (offered.durability, requested.durability)],
        "ownership": OWNERSHIP_COMPAT[
            (offered.ownership, requested.ownership)],
        "deadline": _leq_with_infinity(offered.deadline, requested.deadline),
        "liveliness": _leq_with_infinity(offered.lease, requested.lease),
    }
    failed = tuple(name for name in _POLICY_ORDER if not verdicts[name])
    return MatchResult(
        compatible=not failed,
        failed=failed,
        effective_deadline=requested.deadline,
        effective_budget=offered.latency_budget + requested.latency_budget,
    )

