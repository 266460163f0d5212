"""Content-filtered topics: a small safe sample-expression evaluator.

A reader may declare a *content filter* — a boolean expression over
the fields of a :class:`~repro.pubsub.core.Sample` — and the broker
installs it on every match so the **writer** evaluates it before
sending.  Samples the reader does not want never cross the wire, never
consume the match's EF reserve, and never count against the match's
``sent`` ledger; they show up only in the writer's ``sends_filtered``
counter (mirroring how divisor suppression is accounted).

The expression language is deliberately tiny and is interpreted over
the AST — ``eval`` is never called, and anything outside the
whitelist (calls, attributes, subscripts, comprehensions, lambdas,
names that are not sample fields) is rejected at *construction* time
with ``ValueError`` so a bad filter fails loudly at declaration, not
silently per sample:

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
from typing import Any, FrozenSet

__all__ = ["ContentFilter", "SAMPLE_FIELDS"]

#: The sample fields an expression may name.
SAMPLE_FIELDS: FrozenSet[str] = frozenset(
    ("topic", "writer", "seq", "data", "sent_at"))

_BOOL_OPS = (ast.And, ast.Or)
_CMP_OPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
            ast.Is, ast.IsNot)
_BIN_OPS = (ast.Mod,)


def _validate(node: ast.AST, expression: str) -> None:
    """Reject any AST node outside the whitelist (recursive)."""
    if isinstance(node, ast.Expression):
        _validate(node.body, expression)
    elif isinstance(node, ast.BoolOp):
        if not isinstance(node.op, _BOOL_OPS):
            raise ValueError(f"unsupported boolean op in {expression!r}")
        for value in node.values:
            _validate(value, expression)
    elif isinstance(node, ast.Compare):
        if not all(isinstance(op, _CMP_OPS) for op in node.ops):
            raise ValueError(f"unsupported comparison in {expression!r}")
        _validate(node.left, expression)
        for comparator in node.comparators:
            _validate(comparator, expression)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BIN_OPS):
            raise ValueError(f"unsupported operator in {expression!r}")
        _validate(node.left, expression)
        _validate(node.right, expression)
    elif isinstance(node, ast.Name):
        if node.id not in SAMPLE_FIELDS:
            raise ValueError(
                f"unknown field {node.id!r} in {expression!r} "
                f"(allowed: {', '.join(sorted(SAMPLE_FIELDS))})")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float, str, bool, type(None))):
            raise ValueError(f"unsupported literal in {expression!r}")
    else:
        raise ValueError(
            f"unsupported syntax ({type(node).__name__}) in {expression!r}")


class ContentFilter:
    """A compiled, validated content-filter expression (value object)."""

    __slots__ = ("expression", "_tree", "evaluated", "accepted", "errors")

    def __init__(self, expression: str) -> None:
        try:
            tree = ast.parse(expression, mode="eval")
        except SyntaxError as exc:
            raise ValueError(f"bad filter expression {expression!r}: {exc}")
        _validate(tree, expression)
        self.expression = expression
        self._tree = tree
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

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _eval(self, node: ast.AST, sample: Any) -> Any:
        if isinstance(node, ast.Expression):
            return self._eval(node.body, sample)
        if isinstance(node, ast.BoolOp):
            if isinstance(node.op, ast.And):
                result: Any = True
                for value in node.values:
                    result = self._eval(value, sample)
                    if not result:
                        return result
                return result
            result = False
            for value in node.values:
                result = self._eval(value, sample)
                if result:
                    return result
            return result
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, sample)
            for op, comparator in zip(node.ops, node.comparators):
                right = self._eval(comparator, sample)
                if isinstance(op, ast.Eq):
                    ok = left == right
                elif isinstance(op, ast.NotEq):
                    ok = left != right
                elif isinstance(op, ast.Is):
                    ok = left is right
                elif isinstance(op, ast.IsNot):
                    ok = left is not right
                elif isinstance(op, ast.Lt):
                    ok = left < right
                elif isinstance(op, ast.LtE):
                    ok = left <= right
                elif isinstance(op, ast.Gt):
                    ok = left > right
                else:
                    ok = left >= right
                if not ok:
                    return False
                left = right
            return True
        if isinstance(node, ast.BinOp):  # ``%``, the one operator
            left = self._eval(node.left, sample)
            return left % self._eval(node.right, sample)
        if isinstance(node, ast.Name):
            return getattr(sample, node.id)
        # _validate guarantees the only remaining node kind:
        assert isinstance(node, ast.Constant)
        return node.value

    def matches(self, sample: Any) -> bool:
        """True when the sample passes the filter (errors fail closed)."""
        self.evaluated += 1
        try:
            ok = bool(self._eval(self._tree, sample))
        except Exception:
            self.errors += 1
            return False
        if ok:
            self.accepted += 1
        return ok
