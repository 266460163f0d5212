"""Property test: the compiled content filter against the AST interpreter.

:class:`~repro.pubsub.filters.ContentFilter` compiles its expression
once into one closure per AST node.  The oracle below is the tree-walking
interpreter it replaced, kept verbatim: it walks the AST again for
every sample.  Both run over random expressions drawn from the whole
whitelisted grammar (``and`` / ``or``, chained comparisons including
``is`` / ``is not``, ``%``, the five sample fields and literals) and
random samples whose ``data`` is an int, str, float or ``None``, so
``data % 2`` raises on some of them.  After every sample the verdicts
and the ``evaluated`` / ``accepted`` / ``errors`` counters must agree.
"""

import ast
from typing import Any

from hypothesis import example, given, settings, strategies as st

from repro.pubsub.core import Sample
from repro.pubsub.filters import SAMPLE_FIELDS, ContentFilter


class InterpretedFilter:
    """The AST interpreter a content filter used to be (the oracle)."""

    def __init__(self, expression: str) -> None:
        self._tree = ast.parse(expression, mode="eval")
        self.evaluated = 0
        self.accepted = 0
        self.errors = 0

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


CMP_OPS = st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "is", "is not"])
LITERALS = st.one_of(
    st.integers(min_value=0, max_value=6).map(str),
    st.sampled_from(["0.0", "0.5", "2.5", "1e-09"]),
    st.sampled_from(["'t'", "'w'", "'x'", "''"]),
    st.sampled_from(["True", "False", "None"]),
)
LEAVES = st.one_of(st.sampled_from(sorted(SAMPLE_FIELDS)), LITERALS)


def _grow(children):
    """One more level of the grammar over ``children``."""
    return st.one_of(
        st.tuples(children, children).map(lambda t: f"({t[0]} % {t[1]})"),
        st.tuples(children, st.lists(st.tuples(CMP_OPS, children),
                                     min_size=1, max_size=3)).map(
            lambda t: "(" + t[0] + "".join(f" {op} {right}"
                                           for op, right in t[1]) + ")"),
        st.tuples(st.sampled_from(["and", "or"]),
                  st.lists(children, min_size=2, max_size=4)).map(
            lambda t: "(" + f" {t[0]} ".join(t[1]) + ")"),
    )


EXPRESSIONS = st.recursive(LEAVES, _grow, max_leaves=12)
SAMPLES = st.builds(
    Sample,
    topic=st.sampled_from(["t", "x"]),
    writer=st.sampled_from(["w", "v"]),
    seq=st.integers(min_value=0, max_value=12),
    data=st.one_of(st.none(), st.integers(min_value=-3, max_value=12),
                   st.floats(), st.sampled_from(["t", "w", "x", ""])),
    sent_at=st.floats(min_value=0.0, max_value=10.0),
)


@settings(max_examples=400, deadline=None)
@given(expression=EXPRESSIONS, samples=st.lists(SAMPLES, max_size=8))
@example(expression="(data % 2) == 0",
         samples=[Sample("t", "w", 1, None, 0.0),
                  Sample("t", "w", 2, 4, 0.0)])
@example(expression="1 < seq < 'x' or seq is not None",
         samples=[Sample("t", "w", 0, None, 0.0)])
def test_compiled_filter_matches_the_interpreter(expression, samples):
    compiled = ContentFilter(expression)
    oracle = InterpretedFilter(expression)
    for sample in samples:
        verdict = compiled.matches(sample)
        assert verdict is oracle.matches(sample)
        assert ((compiled.evaluated, compiled.accepted, compiled.errors)
                == (oracle.evaluated, oracle.accepted, oracle.errors))
