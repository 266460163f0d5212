"""An arm's world dies with the arm.

A finished world is a web of cycles (kernel, heap, handles, callbacks)
that only the cyclic collector frees.  The runner freezes the heap
before the scenario call and collects after it, so the collection
walks only the arm's allocations and nothing of the arm outlives it.
No test here calls ``gc.collect()``: the runner's own collection is
what has to free the kernel.
"""

import ast
import gc
import pathlib
import weakref

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import ExperimentRunner, RunSpec
from repro.sim import Kernel

#: Weak references to the kernels the throwaway scenarios built.
KERNELS = []


class Node:
    """A weak-referenceable object for building cycles."""


def build_world():
    kernel = Kernel()
    KERNELS.append(weakref.ref(kernel))
    ticks = []

    def tick():  # a closure over the kernel: kernel -> heap -> tick -> kernel
        ticks.append(kernel.now)
        if len(ticks) < 2000:
            kernel.schedule(0.001, tick)

    kernel.schedule(0.0, tick)
    kernel.run()
    return kernel, ticks


def world_scenario():
    _, ticks = build_world()
    return {"events": len(ticks), "last": ticks[-1]}


def raising_scenario():
    build_world()
    raise RuntimeError("arm failed")


@pytest.fixture(autouse=True)
def throwaway_scenarios(monkeypatch):
    """Registered for one test only: tests elsewhere walk the registry."""
    runner_mod.registered_scenarios()  # the built-ins first
    monkeypatch.setitem(runner_mod._SCENARIOS, "_test_memory_world",
                        world_scenario)
    monkeypatch.setitem(runner_mod._SCENARIOS, "_test_memory_raises",
                        raising_scenario)


def run(name):
    return ExperimentRunner(jobs=1, cache=False).run_one(RunSpec(name))


def test_a_finished_arms_kernel_is_collected_at_the_arm_boundary():
    assert gc.isenabled()
    result = run("_test_memory_world")
    assert result.payload["events"] == 2000
    assert KERNELS[-1]() is None
    assert gc.get_freeze_count() == 0


def test_a_raising_arm_leaves_nothing_frozen():
    with pytest.raises(RuntimeError, match="arm failed"):
        run("_test_memory_raises")
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_the_callers_cycles_survive_the_arm():
    node = Node()
    node.self = node
    ref = weakref.ref(node)
    run("_test_memory_world")
    assert ref() is node and node.self is node
    assert gc.get_freeze_count() == 0


def importers_of(module):
    """``(path, in_except_handler)`` for every import of ``module`` under
    ``src/repro``, paths relative to the package."""
    package = pathlib.Path(runner_mod.__file__).resolve().parents[1]
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        handled = {id(node) for handler in ast.walk(tree)
                   if isinstance(handler, ast.ExceptHandler)
                   for node in ast.walk(handler)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if module in names:
                found.append((path.relative_to(package).as_posix(),
                              id(node) in handled))
    return found


def test_gc_is_imported_by_the_runner_alone():
    """Process-wide collector state has one owner: ``src/repro`` imports
    ``gc`` in ``experiments/runner.py`` and nowhere else (a second import
    is a second way to run an arm)."""
    assert [path for path, _ in importers_of("gc")] == [
        "experiments/runner.py"]


def test_hashlib_is_imported_by_the_rng_fallback_alone():
    """``import hashlib`` maps OpenSSL's libcrypto into the process: the
    one SHA-256 lives in ``sim/rng.py``, and only its last fallback, for
    an interpreter built without ``_sha2`` / ``_sha256``, imports
    ``hashlib``."""
    assert importers_of("hashlib") == [("sim/rng.py", True)]
