"""The package graph follows ``repro.PACKAGE_ORDER`` and has no cycles.

An AST walk over ``src/repro`` holds every module to the table:

* every subpackage (and the ``cli`` front end) has a row, and every
  row a package;
* a module-level import (outside ``if TYPE_CHECKING:``) reaches only
  its own package or one listed before it, so the graph is a DAG;
* an import inside a function is on :data:`ALLOWED` with its reason.
  A function-level import hides an edge from the module-level check,
  so each one is a named exception, not a way round the order.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
RANK = {name: rank for rank, (name, _) in enumerate(repro.PACKAGE_ORDER)}

#: ``(module, function)`` -> why that function imports from ``repro``.
ALLOWED = {
    ("repro.cli", "_cmd_soak"):
        "only `repro soak` runs the soak campaign; `run` and `verify` "
        "never import it",
    ("repro.experiments.runner", "_ensure_builtin_scenarios"):
        "registration by import: the figure table imports the runner, "
        "so the runner imports the table on first lookup",
}


def _unit(module):
    """The table row a dotted ``repro`` module belongs to."""
    parts = module.split(".")
    if len(parts) == 1:
        return None  # ``repro`` itself: below every row
    return "cli" if parts[1] == "__main__" else parts[1]


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        parts = list(path.relative_to(ROOT.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        yield ".".join(parts), ast.parse(path.read_text())


def _targets(node, module):
    """The dotted ``repro`` modules an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names
                if alias.name.split(".")[0] == "repro"]
    assert not node.level, f"{module}: relative import at {node.lineno}"
    name = node.module
    if name.split(".")[0] != "repro":
        return []
    if name == "repro":  # ``from repro import obs``
        return [f"repro.{alias.name}" for alias in node.names]
    return [name]


def _imports(tree, module):
    """``(target, function qualname or None, lineno)`` per repro import
    outside ``if TYPE_CHECKING:`` blocks."""
    found = []

    def walk(node, scope, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.If)
                    and "TYPE_CHECKING" in ast.unparse(child.test)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target in _targets(child, module):
                    found.append((target, function, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                walk(child, scope + [child.name], function or name)
            elif isinstance(child, ast.ClassDef):
                walk(child, scope + [child.name], function)
            else:
                walk(child, scope, function)

    walk(tree, [], None)
    return found


def test_every_package_has_a_row_and_every_row_a_package():
    units = {path.parent.name for path in ROOT.glob("*/__init__.py")}
    units |= {_unit(f"repro.{path.stem}") for path in ROOT.glob("*.py")
              if path.stem != "__init__"}
    assert units - RANK.keys() == set(), "packages missing from the table"
    assert RANK.keys() - units == set(), "rows naming no package"


def test_module_level_imports_only_reach_down():
    upward = []
    for module, tree in _modules():
        own = _unit(module)
        for target, function, line in _imports(tree, module):
            reached = _unit(target)
            if function is not None or reached in (None, own):
                continue
            if own is None or RANK[reached] > RANK[own]:
                upward.append(f"{module}:{line} imports {target}")
    assert upward == [], "imports from a package not below the importer"


def test_function_level_imports_are_the_allowed_ones():
    seen = set()
    unlisted = []
    for module, tree in _modules():
        for target, function, line in _imports(tree, module):
            if function is None:
                continue
            seen.add((module, function))
            if (module, function) not in ALLOWED:
                unlisted.append(f"{module}:{line} {function} imports {target}")
    assert unlisted == [], "function-level imports not on ALLOWED"
    assert ALLOWED.keys() - seen == set(), "ALLOWED entries importing nothing"


def test_importing_the_runner_loads_no_figure():
    """The runner stays import-cheap: its figures load on first lookup."""
    probe = ("import sys, repro.experiments.runner; "
             "assert 'repro.experiments.priority_exp' not in sys.modules")
    done = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": str(ROOT.parent)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
