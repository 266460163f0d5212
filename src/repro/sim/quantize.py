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
    bits a one-term-at-a-time loop would leave, in O(binades crossed)
    rather than O(times).  Float addition is not associative, so
    ``acc + times * value`` is never taken unless it is provably the
    same number; between powers of two the loop's rounded increment is
    a constant, and runs of it are jumped exactly.
"""

from __future__ import annotations

from math import frexp, ldexp, ulp
from sys import float_info

__all__ = ["EPSILON", "add_repeated", "clamp"]

#: The one epsilon for budget/token comparisons across the stack.
EPSILON = 1e-9

#: Integer-valued doubles below this magnitude add without rounding.
_EXACT_INTEGERS = 2.0 ** 53


def add_repeated(acc: float, value: float, times: int) -> float:
    """``acc`` after ``acc += value`` has run ``times`` times.

    When ``acc`` and ``value`` are non-negative, integer-valued and the
    sum stays below 2**53, every partial sum is an exactly representable
    integer, so the loop never rounds and the product form is the same
    number.

    Otherwise the adds are replayed binade by binade.  Inside one
    binade (one sign, magnitudes in [2**(e-1), 2**e), one ulp ``u``)
    every sum rounds onto the same grid, so each add moves ``acc`` by a
    multiple ``d`` of ``u`` fixed by ``value``'s position between grid
    points, and by the parity of ``acc``'s last bit only when ``value``
    sits exactly half-way (a tie).  A tie rounds to an even last bit, so
    once one add has been taken inside the binade ``d`` is constant.  So
    adds are taken one at a time until two in a row stay in one binade
    with equal increments, then ``k`` more are booked as ``acc + k*d``,
    which is exact because every value it passes over is on the grid.
    ``k`` keeps every value the loop would visit inside the binade:
    growing in magnitude, up to ``2**e`` itself (an exact sum that
    rounds there on the binade's grid rounds there on the coarser one
    too); shrinking, no lower than one ulp above ``2**(e-1)``, because a
    sum that would round to ``2**(e-1)`` can lie below it, where the
    finer grid may hold a nearer value.
    """
    if times < 0:
        raise ValueError(f"cannot add a term {times} times")
    if not times:
        return acc
    if (acc >= 0.0 and value >= 0.0
            and value.is_integer() and acc.is_integer()):
        total = acc + times * value
        if total < _EXACT_INTEGERS:
            return total
    mant, exp = frexp(acc)
    last = None  # the previous increment, if it stayed in one binade
    while times:
        new = acc + value
        if new == acc or new != new:
            return new  # a fixed point or NaN: every later add keeps it
        times -= 1
        new_mant, new_exp = frexp(new)
        if new_exp == exp and new_mant * mant > 0.0:
            step = new - acc
            if step == last:
                if (step > 0.0) == (new > 0.0):
                    edge = (ldexp(1.0, new_exp) if new_exp < 1024
                            else float_info.max)
                    room = edge - abs(new)
                else:
                    room = abs(new) - ldexp(0.5, new_exp) - ulp(new)
                jump = min(times, int(room // abs(step)))
                if jump > 0:
                    new += jump * step
                    times -= jump
                    new_mant, new_exp = frexp(new)
                    step = None  # the next add meets the edge: start over
            last = step
        else:
            last = None
        acc, mant, exp = new, new_mant, new_exp
    return acc


def clamp(value: float, lo: float, hi: float) -> float:
    """Restrict ``value`` to ``[lo, hi]``."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value
