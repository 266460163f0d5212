"""Content-filtered topics: a small safe sample-expression evaluator.

A reader may declare a *content filter* — a boolean expression over
the fields of a :class:`~repro.pubsub.core.Sample` — and the broker
installs it on every match so the **writer** evaluates it before
sending.  Samples the reader does not want never cross the wire, never
consume the match's EF reserve, and never count against the match's
``sent`` ledger; they show up only in the writer's ``sends_filtered``
counter (mirroring how divisor suppression is accounted).

The expression language is deliberately tiny.  Its AST is compiled
once, at *construction*, into one closure per node, so a sample costs
a few closure calls and no tree walk.  ``eval`` is never called, and
anything outside the whitelist (calls, attributes, subscripts,
comprehensions, lambdas, names that are not sample fields) is rejected
while compiling with ``ValueError`` so a bad filter fails loudly at
declaration, not silently per sample:

* boolean ops        ``and`` / ``or``
* comparisons        ``== != < <= > >= is is-not`` (chained allowed)
* arithmetic         ``%`` (the modulo that splits a stream by ``seq``)
* names              the sample fields ``topic writer seq data sent_at``
* literals           numbers, strings, True/False/None

A runtime evaluation error (e.g. ``data % 2`` on a string payload)
makes that sample *fail* the filter and increments ``errors`` — a
filter can drop traffic but never crash the writer's publish path.
"""

from __future__ import annotations

import ast
import operator
from typing import Any, Callable, FrozenSet

__all__ = ["ContentFilter", "SAMPLE_FIELDS"]

#: The sample fields an expression may name.
SAMPLE_FIELDS: FrozenSet[str] = frozenset(
    ("topic", "writer", "seq", "data", "sent_at"))

#: The comparison operators, each as the C function that applies it.
_CMP_OPS = {ast.Eq: operator.eq, ast.NotEq: operator.ne,
            ast.Lt: operator.lt, ast.LtE: operator.le,
            ast.Gt: operator.gt, ast.GtE: operator.ge,
            ast.Is: operator.is_, ast.IsNot: operator.is_not}


def _compile(node: ast.AST, expression: str) -> Callable[[Any], Any]:
    """Validate ``node`` against the whitelist and compile it into a
    closure ``sample -> value`` (recursive: one closure per node)."""
    if isinstance(node, ast.Expression):
        return _compile(node.body, expression)
    if isinstance(node, ast.BoolOp):
        if not isinstance(node.op, (ast.And, ast.Or)):
            raise ValueError(f"unsupported boolean op in {expression!r}")
        parts = [_compile(value, expression) for value in node.values]
        # ``a and b and c`` is ``a and (b and c)``: fold from the right,
        # so each closure is one short-circuit returning an operand.
        fn = parts.pop()
        for first in reversed(parts):
            if isinstance(node.op, ast.And):
                fn = _and(first, fn)
            else:
                fn = _or(first, fn)
        return fn
    if isinstance(node, ast.Compare):
        ops = []
        for op in node.ops:
            fn = _CMP_OPS.get(type(op))
            if fn is None:
                raise ValueError(f"unsupported comparison in {expression!r}")
            ops.append(fn)
        left = _compile(node.left, expression)
        rights = [_compile(comparator, expression)
                  for comparator in node.comparators]
        return _chain(left, tuple(zip(ops, rights)))
    if isinstance(node, ast.BinOp):
        if not isinstance(node.op, ast.Mod):
            raise ValueError(f"unsupported operator in {expression!r}")
        return _mod(_compile(node.left, expression),
                    _compile(node.right, expression))
    if isinstance(node, ast.Name):
        if node.id not in SAMPLE_FIELDS:
            raise ValueError(
                f"unknown field {node.id!r} in {expression!r} "
                f"(allowed: {', '.join(sorted(SAMPLE_FIELDS))})")
        return operator.attrgetter(node.id)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, str, bool, type(None))):
            raise ValueError(f"unsupported literal in {expression!r}")
        return _constant(node.value)
    raise ValueError(
        f"unsupported syntax ({type(node).__name__}) in {expression!r}")


def _and(first: Callable, rest: Callable) -> Callable:
    return lambda sample: first(sample) and rest(sample)


def _or(first: Callable, rest: Callable) -> Callable:
    return lambda sample: first(sample) or rest(sample)


def _chain(left: Callable, links: tuple) -> Callable:
    """A comparison, chained or not: each operand read once, stopping
    at the first false link."""
    def chain(sample: Any) -> bool:
        value = left(sample)
        for op, right in links:
            other = right(sample)
            if not op(value, other):
                return False
            value = other
        return True
    return chain


def _mod(left: Callable, right: Callable) -> Callable:
    return lambda sample: left(sample) % right(sample)


def _constant(value: Any) -> Callable:
    return lambda sample: value


class ContentFilter:
    """A compiled, validated content-filter expression (value object)."""

    __slots__ = ("expression", "_test", "evaluated", "accepted", "errors")

    def __init__(self, expression: str) -> None:
        try:
            tree = ast.parse(expression, mode="eval")
        except SyntaxError as exc:
            raise ValueError(f"bad filter expression {expression!r}: {exc}")
        self.expression = expression
        self._test = _compile(tree, expression)
        self.evaluated = 0
        self.accepted = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # Value semantics (on the expression string; counters are stats)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContentFilter):
            return NotImplemented
        return self.expression == other.expression

    def __hash__(self) -> int:
        return hash(self.expression)

    def __reduce__(self):
        return (self.__class__, (self.expression,))

    def __repr__(self) -> str:  # pragma: no cover
        return f"ContentFilter({self.expression!r})"

    def matches(self, sample: Any) -> bool:
        """True when the sample passes the filter (errors fail closed)."""
        self.evaluated += 1
        try:
            ok = bool(self._test(sample))
        except Exception:
            self.errors += 1
            return False
        if ok:
            self.accepted += 1
        return ok
