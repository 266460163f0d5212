"""Property tests: the RxO compatibility lattice laws.

:func:`~repro.pubsub.matching.rxo_check` is a pure function of two
:class:`~repro.pubsub.policies.QosPolicy` values, so the DDS lattice
laws are directly checkable over random policies:

- offering *more* (RELIABLE over BEST_EFFORT, a tighter deadline, a
  tighter lease) never breaks a match that held with less;
- requesting *less* never breaks a match either;
- latency budgets are additive along the match and never block it;
- history is a local resource policy — it can never affect matching;
- the failure tuple is deterministic, canonically ordered, and exact
  (every named policy really is the one that refused).

The enum cross-product is additionally pinned as a literal table:
editing the compatibility rules must show up as a diff here.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.pubsub.matching import (
    DURABILITY_COMPAT,
    OWNERSHIP_COMPAT,
    RELIABILITY_COMPAT,
    rxo_check,
)
from repro.pubsub.policies import (
    Durability,
    HistoryKind,
    OwnershipKind,
    QosPolicy,
    Reliability,
)

FINITE_PERIOD = st.floats(min_value=1e-3, max_value=10.0,
                          allow_nan=False, allow_infinity=False)
MAYBE_PERIOD = st.one_of(st.none(), FINITE_PERIOD)
BUDGET = st.floats(min_value=0.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False)

POLICY = st.builds(
    QosPolicy,
    reliability=st.sampled_from(Reliability),
    history=st.sampled_from(HistoryKind),
    depth=st.integers(min_value=1, max_value=64),
    deadline=MAYBE_PERIOD,
    latency_budget=BUDGET,
    lease=MAYBE_PERIOD,
    ownership=st.sampled_from(OwnershipKind),
    strength=st.integers(min_value=0, max_value=100),
    durability=st.sampled_from(Durability),
)


def _leq(offered, requested):
    """offered <= requested with None = infinity."""
    if requested is None:
        return True
    if offered is None:
        return False
    return offered <= requested


# ----------------------------------------------------------------------
# The verdict is exactly its per-policy laws
# ----------------------------------------------------------------------
@settings(max_examples=300)
@given(offered=POLICY, requested=POLICY)
def test_verdict_decomposes_into_policy_laws(offered, requested):
    result = rxo_check(offered, requested)
    expected_failed = tuple(
        name for name, ok in (
            ("reliability", RELIABILITY_COMPAT[
                (offered.reliability, requested.reliability)]),
            ("durability", DURABILITY_COMPAT[
                (offered.durability, requested.durability)]),
            ("ownership", OWNERSHIP_COMPAT[
                (offered.ownership, requested.ownership)]),
            ("deadline", _leq(offered.deadline, requested.deadline)),
            ("liveliness", _leq(offered.lease, requested.lease)),
        ) if not ok)
    assert result.failed == expected_failed
    assert result.compatible == (not expected_failed)
    # Pure: the same inputs always produce the identical verdict.
    assert rxo_check(offered, requested) == result


@settings(max_examples=300)
@given(offered=POLICY, requested=POLICY)
def test_reliable_dominates_best_effort(offered, requested):
    """RELIABLE ⊒ BEST_EFFORT: upgrading the offer never hurts."""
    upgraded = offered.replace(reliability=Reliability.RELIABLE)
    if rxo_check(offered, requested).compatible:
        assert rxo_check(upgraded, requested).compatible
    # And reliability refuses exactly the (BE offered, RELIABLE
    # requested) corner.
    reliability_failed = "reliability" in rxo_check(offered,
                                                    requested).failed
    assert reliability_failed == (
        offered.reliability is Reliability.BEST_EFFORT
        and requested.reliability is Reliability.RELIABLE)


@settings(max_examples=300)
@given(offered=POLICY, requested=POLICY,
       tighter=FINITE_PERIOD)
def test_deadline_offered_must_cover_requested(offered, requested, tighter):
    """Compatible iff offered period <= requested (None = infinite)."""
    result = rxo_check(offered, requested)
    assert ("deadline" not in result.failed) == _leq(
        offered.deadline, requested.deadline)
    # Tightening the offer (promising *more* frequent updates) can
    # never break the deadline law.
    if offered.deadline is not None and "deadline" not in result.failed:
        tightened = offered.replace(
            deadline=min(offered.deadline, tighter))
        assert "deadline" not in rxo_check(tightened, requested).failed
    # The monitor period a match would run at is the reader's ask.
    assert result.effective_deadline == requested.deadline


@settings(max_examples=300)
@given(offered=POLICY, requested=POLICY)
def test_latency_budget_is_additive_and_never_blocks(offered, requested):
    result = rxo_check(offered, requested)
    assert result.effective_budget == (
        offered.latency_budget + requested.latency_budget)
    assert "latency_budget" not in result.failed  # not a failure name
    # Zero budgets on both sides sum to zero slack.
    zero = rxo_check(offered.replace(latency_budget=0.0),
                     requested.replace(latency_budget=0.0))
    assert zero.effective_budget == 0.0
    assert zero.failed == result.failed


@settings(max_examples=300)
@given(offered=POLICY, requested=POLICY,
       history_o=st.sampled_from(HistoryKind),
       history_r=st.sampled_from(HistoryKind),
       depth_o=st.integers(min_value=1, max_value=4096),
       depth_r=st.integers(min_value=1, max_value=4096))
def test_history_never_affects_matching(offered, requested, history_o,
                                        history_r, depth_o, depth_r):
    """History is local resource policy, not an RxO dimension."""
    baseline = rxo_check(offered, requested)
    rewritten = rxo_check(
        offered.replace(history=history_o, depth=depth_o),
        requested.replace(history=history_r, depth=depth_r))
    assert rewritten == baseline


@settings(max_examples=300)
@given(offered=POLICY, requested=POLICY)
def test_transient_local_dominates_volatile(offered, requested):
    """TRANSIENT_LOCAL ⊒ VOLATILE: upgrading the offer never hurts."""
    upgraded = offered.replace(durability=Durability.TRANSIENT_LOCAL)
    if rxo_check(offered, requested).compatible:
        assert rxo_check(upgraded, requested).compatible
    # And durability refuses exactly the (VOLATILE offered,
    # TRANSIENT_LOCAL requested) corner.
    durability_failed = "durability" in rxo_check(offered,
                                                  requested).failed
    assert durability_failed == (
        offered.durability is Durability.VOLATILE
        and requested.durability is Durability.TRANSIENT_LOCAL)


@settings(max_examples=300)
@given(offered=POLICY, requested=POLICY)
def test_liveliness_offered_lease_must_cover_requested(offered, requested):
    result = rxo_check(offered, requested)
    assert ("liveliness" not in result.failed) == _leq(
        offered.lease, requested.lease)


@settings(max_examples=300)
@given(offered=POLICY, requested=POLICY)
def test_failed_tuple_is_canonically_ordered(offered, requested):
    order = ("reliability", "durability", "ownership", "deadline",
             "liveliness")
    failed = rxo_check(offered, requested).failed
    assert list(failed) == [name for name in order if name in failed]
    assert len(set(failed)) == len(failed)


# ----------------------------------------------------------------------
# The pinned exhaustive table
# ----------------------------------------------------------------------
#: (offered_reliability, requested_reliability, offered_durability,
#: requested_durability, offered_ownership, requested_ownership) ->
#: compatible, with numeric policies at their defaults.
#: BEST_EFFORT=0/RELIABLE=1, VOLATILE=0/TRANSIENT_LOCAL=1,
#: SHARED=0/EXCLUSIVE=1.
PINNED_MATRIX = {
    (0, 0, 0, 0, 0, 0): True,
    (0, 0, 0, 0, 0, 1): False,
    (0, 0, 0, 0, 1, 0): False,
    (0, 0, 0, 0, 1, 1): True,
    (0, 0, 0, 1, 0, 0): False,
    (0, 0, 0, 1, 0, 1): False,
    (0, 0, 0, 1, 1, 0): False,
    (0, 0, 0, 1, 1, 1): False,
    (0, 0, 1, 0, 0, 0): True,
    (0, 0, 1, 0, 0, 1): False,
    (0, 0, 1, 0, 1, 0): False,
    (0, 0, 1, 0, 1, 1): True,
    (0, 0, 1, 1, 0, 0): True,
    (0, 0, 1, 1, 0, 1): False,
    (0, 0, 1, 1, 1, 0): False,
    (0, 0, 1, 1, 1, 1): True,
    (0, 1, 0, 0, 0, 0): False,
    (0, 1, 0, 0, 0, 1): False,
    (0, 1, 0, 0, 1, 0): False,
    (0, 1, 0, 0, 1, 1): False,
    (0, 1, 0, 1, 0, 0): False,
    (0, 1, 0, 1, 0, 1): False,
    (0, 1, 0, 1, 1, 0): False,
    (0, 1, 0, 1, 1, 1): False,
    (0, 1, 1, 0, 0, 0): False,
    (0, 1, 1, 0, 0, 1): False,
    (0, 1, 1, 0, 1, 0): False,
    (0, 1, 1, 0, 1, 1): False,
    (0, 1, 1, 1, 0, 0): False,
    (0, 1, 1, 1, 0, 1): False,
    (0, 1, 1, 1, 1, 0): False,
    (0, 1, 1, 1, 1, 1): False,
    (1, 0, 0, 0, 0, 0): True,
    (1, 0, 0, 0, 0, 1): False,
    (1, 0, 0, 0, 1, 0): False,
    (1, 0, 0, 0, 1, 1): True,
    (1, 0, 0, 1, 0, 0): False,
    (1, 0, 0, 1, 0, 1): False,
    (1, 0, 0, 1, 1, 0): False,
    (1, 0, 0, 1, 1, 1): False,
    (1, 0, 1, 0, 0, 0): True,
    (1, 0, 1, 0, 0, 1): False,
    (1, 0, 1, 0, 1, 0): False,
    (1, 0, 1, 0, 1, 1): True,
    (1, 0, 1, 1, 0, 0): True,
    (1, 0, 1, 1, 0, 1): False,
    (1, 0, 1, 1, 1, 0): False,
    (1, 0, 1, 1, 1, 1): True,
    (1, 1, 0, 0, 0, 0): True,
    (1, 1, 0, 0, 0, 1): False,
    (1, 1, 0, 0, 1, 0): False,
    (1, 1, 0, 0, 1, 1): True,
    (1, 1, 0, 1, 0, 0): False,
    (1, 1, 0, 1, 0, 1): False,
    (1, 1, 0, 1, 1, 0): False,
    (1, 1, 0, 1, 1, 1): False,
    (1, 1, 1, 0, 0, 0): True,
    (1, 1, 1, 0, 0, 1): False,
    (1, 1, 1, 0, 1, 0): False,
    (1, 1, 1, 0, 1, 1): True,
    (1, 1, 1, 1, 0, 0): True,
    (1, 1, 1, 1, 0, 1): False,
    (1, 1, 1, 1, 1, 0): False,
    (1, 1, 1, 1, 1, 1): True,
}


def enum_matrix():
    """The full pure-enum cross-product as a flat table: keys are
    ``(offered_reliability, requested_reliability, offered_durability,
    requested_durability, offered_ownership, requested_ownership)`` as
    ints, values the match verdict with every numeric policy left at
    its default."""
    out = {}
    for rel_o, rel_r, dur_o, dur_r, own_o, own_r in itertools.product(
            Reliability, Reliability, Durability, Durability,
            OwnershipKind, OwnershipKind):
        offered = QosPolicy(reliability=rel_o, ownership=own_o,
                            durability=dur_o)
        requested = QosPolicy(reliability=rel_r, ownership=own_r,
                              durability=dur_r)
        key = (int(rel_o), int(rel_r), int(dur_o), int(dur_r),
               int(own_o), int(own_r))
        out[key] = rxo_check(offered, requested).compatible
    return out


def test_enum_matrix_matches_pinned_table():
    assert enum_matrix() == PINNED_MATRIX


def test_pinned_table_is_exhaustive():
    assert len(PINNED_MATRIX) == (
        len(Reliability) ** 2 * len(Durability) ** 2
        * len(OwnershipKind) ** 2)
