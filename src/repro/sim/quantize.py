"""Shared numeric policy for resource-accounting hot paths.

Token buckets (:mod:`repro.net.queues`) and CPU reserves
(:mod:`repro.oskernel.reserve`) both subtract consumption from a
float budget across millions of small operations.  IEEE subtraction of
``a - b`` with ``a >= b`` never goes negative, but *comparisons* against
the budget accumulate representation error, so both layers used to carry
their own ad-hoc epsilon.  This module is the single source of truth:

``EPSILON``
    One simulated nanosecond (or one nano-unit of whatever the budget
    measures).  Residue at or below this is treated as exactly zero —
    coarse enough that ``now + slice`` is always a representable later
    float, fine enough that no real budget is ever confused with noise.

``clamp``
    Range-restrict a float accumulator so stored values satisfy their
    documented interval invariant (``tokens in [0, depth]``,
    ``budget in [0, compute]``) *exactly*, not just up to drift.

``add_repeated``
    Book ``times`` identical terms on a float accumulator with the
    bits a one-term-at-a-time loop would leave.  Float addition is not
    associative, so ``acc + times * value`` is only taken when it is
    provably the same number.
"""

from __future__ import annotations

__all__ = ["EPSILON", "add_repeated", "clamp", "is_zero"]

#: The one epsilon for budget/token comparisons across the stack.
EPSILON = 1e-9

#: Integer-valued doubles below this magnitude add without rounding.
_EXACT_INTEGERS = 2.0 ** 53


def add_repeated(acc: float, value: float, times: int) -> float:
    """``acc`` after ``acc += value`` has run ``times`` times.

    When ``acc`` and ``value`` are non-negative, integer-valued and the
    sum stays below 2**53, every partial sum is an exactly representable
    integer, so the loop never rounds and the product form is the same
    number.  Otherwise the adds are taken one by one: each of them
    rounds, and ``acc + times * value`` rounds only once.
    """
    if (acc >= 0.0 and value >= 0.0
            and value.is_integer() and acc.is_integer()):
        total = acc + times * value
        if total < _EXACT_INTEGERS:
            return total
    for _ in range(times):
        acc += value
    return acc


def clamp(value: float, lo: float, hi: float) -> float:
    """Restrict ``value`` to ``[lo, hi]``."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def is_zero(value: float) -> bool:
    """True if ``value`` is indistinguishable from an exhausted budget."""
    return value <= EPSILON
