"""Reproducibility tests: experiments are pure functions of their seed.

A reproduction package whose numbers change with process history is
not a reproduction.  These tests pin two properties: (1) identical
seeds give bit-identical results, regardless of how many experiments
ran before in the same process; (2) different seeds actually change
the stochastic components.

The history-independence test guards a real regression: object ids
were once numbered process-wide, so an auto-numbered servant's GIOP
object-key byte length, and with it every congested-run timing,
depended on how many activations had happened earlier in the process.
Ids are now numbered per kernel, and object ids per POA.
"""

import ast
import pathlib
import pickle

import repro

from repro.experiments.ablations import run_ecn_arm
from repro.experiments.priority_exp import (
    PriorityArm,
    run_priority_experiment,
)
from repro.experiments.reservation_cpu_exp import (
    CpuArm,
    run_cpu_reservation_experiment,
)
from repro.experiments.reservation_net_exp import (
    NetworkArm,
    run_network_reservation_experiment,
)
from repro.net import Network
from repro.orb import Orb, Servant
from repro.oskernel import Host
from repro.sim import Kernel


def priority_fingerprint(result):
    stats = result.stats("sender1")
    return (stats.count, stats.mean, stats.std, stats.maximum)


def test_priority_experiment_seed_determinism():
    a = run_priority_experiment(PriorityArm.figure4b(), duration=8.0, seed=3)
    b = run_priority_experiment(PriorityArm.figure4b(), duration=8.0, seed=3)
    assert priority_fingerprint(a) == priority_fingerprint(b)


def test_priority_experiment_seed_sensitivity():
    a = run_priority_experiment(PriorityArm.figure4b(), duration=8.0, seed=3)
    b = run_priority_experiment(PriorityArm.figure4b(), duration=8.0, seed=4)
    assert priority_fingerprint(a) != priority_fingerprint(b)


def pollute_process():
    """Burn ids as a long session would: 120 auto-numbered activations on
    a throwaway POA, then two other experiments."""
    kernel = Kernel()
    net = Network(kernel)
    net.attach_host(Host(kernel, "h"))
    poa = Orb(kernel, net.host("h"), net).create_poa("throwaway")
    for _ in range(120):
        poa.activate_object(Servant())
    run_priority_experiment(PriorityArm.figure4a(), duration=2.0)
    run_cpu_reservation_experiment(CpuArm.no_load(), duration=2.0)


def assert_independent_of_process_history(arm):
    """What ran earlier in the process must not change an arm's payload."""
    baseline = pickle.dumps(arm())
    pollute_process()
    assert pickle.dumps(arm()) == baseline


def test_ecn_arm_independent_of_process_history():
    """The probe servant's oid is auto-numbered: its key length is wire
    bytes, so process-wide numbering moved the probe RTTs."""
    assert_independent_of_process_history(lambda: run_ecn_arm(use_red=True))


def test_priority_experiment_independent_of_process_history():
    assert_independent_of_process_history(
        lambda: run_priority_experiment(PriorityArm.figure5b(), duration=8.0))


def import_time_counters():
    """``(path, line)`` of every ``count(...)`` / ``itertools.count(...)``
    evaluated at import under ``src/repro``: outside any function body."""
    package = pathlib.Path(repro.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        pending = list(ast.parse(path.read_text(), str(path)).body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and (
                    isinstance(func, ast.Name) and func.id == "count"
                    or isinstance(func, ast.Attribute)
                    and func.attr == "count"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "itertools"):
                found.append((path.relative_to(package).as_posix(),
                              node.lineno))
            pending.extend(ast.iter_child_nodes(node))
    return found


def test_no_process_wide_id_counter():
    """Ids have one owner, the kernel (``Kernel.ids``): a counter bound at
    import keeps counting across arms, so an arm's ids, and the wire and
    trace bytes that carry them, would depend on what ran before it."""
    assert import_time_counters() == []


def test_network_experiment_seed_determinism():
    kwargs = dict(duration=40.0, load_start=10.0, load_end=30.0, seed=7)
    arm = NetworkArm("2-partial", "partial", False)
    a = run_network_reservation_experiment(arm, **kwargs)
    b = run_network_reservation_experiment(arm, **kwargs)
    assert (a.delivered_fraction_under_load()
            == b.delivered_fraction_under_load())
    assert a.latency_under_load().mean == b.latency_under_load().mean


def test_cpu_experiment_seed_determinism():
    a = run_cpu_reservation_experiment(CpuArm.load(), duration=20.0, seed=5)
    b = run_cpu_reservation_experiment(CpuArm.load(), duration=20.0, seed=5)
    for algorithm in ("Kirsch", "Prewitt", "Sobel"):
        assert a.stats(algorithm).mean == b.stats(algorithm).mean
        assert a.stats(algorithm).std == b.stats(algorithm).std


def test_cpu_experiment_seed_changes_load_pattern():
    a = run_cpu_reservation_experiment(CpuArm.load(), duration=20.0, seed=5)
    b = run_cpu_reservation_experiment(CpuArm.load(), duration=20.0, seed=6)
    assert a.stats("Kirsch").mean != b.stats("Kirsch").mean
