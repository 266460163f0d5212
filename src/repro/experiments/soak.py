"""Randomized soak harness: invariant checkers x random figure points.

The unit and property suites check behaviours someone thought of; the
soak harness searches for the ones nobody did.  From a single root
seed it derives a stream of random cases, each one arm of a figure
whose scenario takes faults (an ``ARM_SCENARIOS`` entry) at one of its
sweep points, on a shortened timeline, under a random fault plan whose
targets are indexes into the links and nodes that arm's network
builds.  A case runs as the figure's own spec through
the ``checked`` scenario, under the full
:mod:`repro.check.invariants` suite and the retention law, as in
``repro verify``.  Any violation or crash is shrunk to a minimal
reproducer (drop faults wholesale, then halves, then one-by-one; then
halve the sweep point down to the figure's smallest) and reported with
a ready-to-paste replay command.

Every case is a pure function of ``(root_seed, index)``, and cases
fan out through the :class:`~repro.experiments.runner.ExperimentRunner`
with caching off, so ``--jobs N`` changes wall-clock only — the
verdict for every case is identical at any worker count.
"""

from __future__ import annotations

import json
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check.invariants import InvariantViolation, default_suite
from repro.experiments.runner import (ExperimentRunner, RunSpec,
                                      scenario_function)
from repro.experiments.scenario_registry import (ARM_SCENARIOS, FIGURES,
                                                 Figure)

__all__ = [
    "generate_case",
    "generate_cases",
    "case_spec",
    "run_soak_case",
    "shrink_case",
    "replay_command",
    "run_soak",
]

_FAULT_KINDS = ("link_flap", "loss_burst", "link_degrade", "node_crash")
#: Fault targets are drawn below this; the injector takes them modulo
#: the built network's link or node count.
_TARGETS = 1 << 16

#: Large odd multiplier decorrelating per-case seeds from the root.
_SEED_STRIDE = 1_000_003


def case_seed(root_seed: int, index: int) -> int:
    return root_seed * _SEED_STRIDE + index


def _figures() -> Dict[str, Figure]:
    """The figures soak draws from: those whose arms take faults."""
    return {name: figure for name, figure in FIGURES.items()
            if figure.scenario in ARM_SCENARIOS}


# ----------------------------------------------------------------------
# Configuration generation
# ----------------------------------------------------------------------
def _random_fault(rng: random.Random, duration: float) -> Dict:
    kind = rng.choice(_FAULT_KINDS)
    at = round(rng.uniform(0.5, max(0.6, duration - 0.5)), 3)
    window = round(rng.uniform(0.3, 1.5), 3)
    target = rng.randrange(_TARGETS)
    if kind == "node_crash":
        return {"kind": kind, "node": target, "at": at,
                "duration": window, "lose_state": rng.random() < 0.5}
    fault = {"kind": kind, "link": target, "at": at, "duration": window}
    if kind == "loss_burst":
        fault["loss"] = round(rng.uniform(0.05, 0.9), 3)
    elif kind == "link_degrade":
        fault["factor"] = round(rng.uniform(0.1, 0.9), 3)
    return fault


def generate_case(root_seed: int, index: int, duration: float = 6.0) -> Dict:
    """The fully random configuration for soak run ``index``.

    Pure in ``(root_seed, index)``: the same pair always produces the
    same JSON-able case dict, which is what makes shrinking and replay
    exact.  ``arm`` is what ``repro run --arm`` matches; ``point`` is
    present when the figure sweeps.
    """
    seed = case_seed(root_seed, index)
    rng = random.Random(seed)
    figure = rng.choice(list(_figures().values()))
    case: Dict[str, Any] = {
        "index": int(index),
        "seed": int(seed),
        "figure": figure.name,
        "arm": rng.choice(figure.arm_names()),
    }
    if figure.sweep is not None:
        case["point"] = rng.choice(figure.points)
    case["duration"] = float(duration)
    case["faults"] = [_random_fault(rng, duration)
                      for _ in range(rng.randint(0, 4))]
    return case


def generate_cases(root_seed: int, runs: int,
                   duration: float = 6.0) -> List[Dict]:
    return [generate_case(root_seed, index, duration)
            for index in range(int(runs))]


def case_spec(case: Dict) -> RunSpec:
    """The figure's own run for ``case``: its arm at its point, with the
    case's duration, seed and fault plan.

    A figure's float params are its timeline (the duration and any load
    phase in it), so a shortened run scales them all alike and a phase
    still falls inside the run."""
    figure = _figures().get(case["figure"])
    if figure is None:
        raise ValueError(f"no soak figure {case['figure']!r}; choose from: "
                         f"{', '.join(_figures())}")
    names = figure.arm_names()
    if case["arm"] not in names:
        raise ValueError(f"unknown arm {case['arm']!r} for {figure.name}; "
                         f"choose from: {', '.join(names)}")
    duration = float(case["duration"])
    scale = duration / figure.params["duration"]
    params = {key: value * scale if type(value) is float else value
              for key, value in figure.params.items()}
    params.update(duration=duration, fault_plan=list(case["faults"]))
    (spec,) = figure._replace(
        arms=(figure.arms[names.index(case["arm"])],),
        points=(case["point"],) if figure.sweep else (),
        params=params, seed=int(case["seed"])).specs()
    return spec


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _verdict(case: Dict, payload: Any) -> Dict:
    """What a ``checked`` payload says about ``case``: ``ok``, or the
    failure (``"invariant"`` naming its checker, or ``"crash"``)."""
    verdict = {"ok": True, "case": dict(case), "checker": None,
               "message": None, "failure": None, "events": 0}
    if not isinstance(payload, InvariantViolation):
        verdict["events"] = payload.events_executed
    elif payload.checker == "crash":
        verdict.update(ok=False, failure="crash", message=payload.message)
    else:
        verdict.update(ok=False, failure="invariant",
                       checker=payload.checker, message=str(payload))
    return verdict


def run_soak_case(case: Dict) -> Dict:
    """Run one case in this process under the ``checked`` scenario, as
    :func:`run_soak` runs it in a worker; picklable verdict.

    ``ok`` is True when the run completed and every invariant (runtime,
    teardown and retention) held.  An exception the arm raises is a
    ``"crash"`` verdict, not a raise; a case that names no soak figure
    or arm raises ``ValueError``.  ``checked`` is the count of records
    the suite checked.
    """
    spec = case_spec(case)
    suite = default_suite()
    verdict = _verdict(case, scenario_function("checked")(
        spec.scenario, spec.params, spec.seed, checks=suite))
    verdict["checked"] = suite.events_dispatched
    return verdict


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_case(case: Dict, budget: int = 20,
                run: Callable[[Dict], Dict] = run_soak_case
                ) -> Tuple[Dict, int]:
    """Reduce a failing case to a smaller one that still fails.

    Delta-debugging lite, bounded by ``budget`` extra runs: drop the
    fault plan wholesale, then by halves, then one event at a time;
    finally halve the sweep point, down to the figure's smallest.
    Returns the smallest failing case found and the number of reduction
    runs spent.
    """
    trials = [0]

    def fails(candidate: Dict) -> bool:
        if trials[0] >= budget:
            return False
        trials[0] += 1
        return not run(candidate)["ok"]

    best = dict(case)
    faults = list(best["faults"])
    if faults and fails({**best, "faults": []}):
        faults = []
    else:
        while len(faults) > 1:
            half = len(faults) // 2
            for subset in (faults[half:], faults[:half]):
                if fails({**best, "faults": subset}):
                    faults = subset
                    break
            else:
                break
        index = 0
        while index < len(faults) and len(faults) > 1:
            subset = faults[:index] + faults[index + 1:]
            if fails({**best, "faults": subset}):
                faults = subset
            else:
                index += 1
    best = {**best, "faults": faults}
    if "point" in best:
        floor = min(_figures()[best["figure"]].points)
        while best["point"] > floor:
            candidate = {**best, "point": max(floor, best["point"] // 2)}
            if fails(candidate):
                best = candidate
            else:
                break
    return best, trials[0]


def replay_command(case: Dict) -> str:
    """The exact CLI invocation reproducing ``case``."""
    return f"repro soak --replay '{json.dumps(case, sort_keys=True)}'"


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def run_soak(root_seed: int, runs: int, duration: float = 6.0,
             jobs: Optional[int] = None, shrink: bool = True,
             shrink_budget: int = 20,
             emit: Optional[Callable[[str], None]] = None) -> Dict:
    """Run ``runs`` random cases; shrink and report every failure.

    Caching is forced off — soak derives its value from re-executing,
    and a verdict must reflect the code under test, never a stale
    entry.  Results merge in case order, so the report is identical at
    any ``jobs``.
    """
    def say(message: str) -> None:
        if emit is not None:
            emit(message)

    cases = generate_cases(root_seed, runs, duration)
    runner = ExperimentRunner(jobs=jobs, cache=False)
    say(f"soak: {len(cases)} cases from root seed {root_seed} "
        f"({runner.jobs} jobs)")
    payloads = runner.payloads([
        RunSpec("checked", {"scenario": spec.scenario, "params": spec.params},
                spec.seed) for spec in map(case_spec, cases)])

    failures = []
    total_events = 0
    for case, payload in zip(cases, payloads):
        verdict = _verdict(case, payload)
        total_events += verdict["events"]
        if verdict["ok"]:
            continue
        say(f"soak: case {case['index']} FAILED "
            f"({verdict['failure']}: {verdict['message']})")
        entry = {
            "case": case,
            "failure": verdict["failure"],
            "checker": verdict["checker"],
            "message": verdict["message"],
            "shrunk": case,
            "shrink_runs": 0,
        }
        if shrink:
            shrunk, spent = shrink_case(case, budget=shrink_budget)
            entry["shrunk"] = shrunk
            entry["shrink_runs"] = spent
            if spent:
                sweep = _figures()[case["figure"]].sweep
                point = (f", {sweep}={shrunk['point']}" if sweep else "")
                say(f"soak: shrunk case {case['index']} to "
                    f"{len(shrunk['faults'])} fault(s){point} "
                    f"in {spent} runs")
        entry["replay"] = replay_command(entry["shrunk"])
        say(f"soak: replay with: {entry['replay']}")
        failures.append(entry)

    report = {
        "root_seed": int(root_seed),
        "runs": len(cases),
        "failures": failures,
        "ok": not failures,
        "events": total_events,
    }
    say(f"soak: {len(cases) - len(failures)}/{len(cases)} cases clean, "
        f"{total_events} events simulated")
    return report
