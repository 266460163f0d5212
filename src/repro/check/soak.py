"""Randomized soak harness: invariant checkers x random configurations.

The unit and property suites check behaviours someone thought of; the
soak harness searches for the ones nobody did.  From a single root
seed it derives a stream of random capacity-farm configurations —
arm x stream count x link capacities x fault plan — and runs each
under the full :mod:`repro.check.invariants` suite.  Any violated
invariant is shrunk to a minimal reproducer (drop faults wholesale,
then halves, then one-by-one; then halve the stream count) and
reported with a ready-to-paste replay command.

Every case is a pure function of ``(root_seed, index)``, and cases
fan out through the :class:`~repro.experiments.runner.ExperimentRunner`
with caching off, so ``--jobs N`` changes wall-clock only — the
verdict for every case is identical at any worker count.
"""

from __future__ import annotations

import json
import random
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.check.invariants import InvariantViolation, default_suite

__all__ = [
    "generate_case",
    "generate_cases",
    "run_soak_case",
    "shrink_case",
    "replay_command",
    "run_soak",
]

#: The four fig 9 mechanism arms, all soak-eligible.
ARMS = ("best-effort", "priority", "reserves", "adaptive")
#: Bottleneck capacities to sample (below/at/above the fig 9 nominal).
BOTTLENECKS_BPS = (6e6, 10e6, 14e6)
#: Cross-traffic intensities to sample.
CROSS_BPS = (0.0, 2e6, 4e6)
#: Links faults may target, as (device, device) name pairs.
FAULT_LINKS = (("src", "router"), ("load", "router"), ("router", "dst"))
_FAULT_KINDS = ("link_flap", "loss_burst", "link_degrade", "node_crash")

#: The fig 12 QoS arms, all soak-eligible under the pub-sub family.
PUBSUB_ARMS = ("best-effort", "reliable", "adaptive", "ownership",
               "durable", "filtered", "partition")
#: Fan-out bottlenecks to sample (under/at/over the fig 12 nominal).
PUBSUB_BOTTLENECKS_BPS = (30e6, 60e6, 120e6)
#: Pub-sub topology targets for random faults.
PUBSUB_FAULT_LINKS = (("pub0", "router"), ("pub1", "router"),
                      ("brk", "router"), ("router", "sub"))
PUBSUB_FAULT_NODES = ("pub0", "pub1", "pub2", "pub3", "brk")
#: Smallest legal pub-sub population (the measured cohort itself).
PUBSUB_MIN_SUBSCRIBERS = 16

#: Large odd multiplier decorrelating per-case seeds from the root.
_SEED_STRIDE = 1_000_003


class Family(NamedTuple):
    """How one scenario family runs a case dict: a row per family."""

    #: The figure whose scenario and arms the family draws from.
    figure: str
    #: Case dict -> the scenario's own parameters (beyond arm, seed,
    #: duration, fault plan and suite, which every family passes).
    params: Callable[[Dict], Dict[str, Any]]
    #: Result payload -> (frames or samples delivered, sent).
    totals: Callable[[Any], Tuple[int, int]]
    #: The case key shrinking halves, and its smallest legal value.
    load_key: str
    load_floor: int


FAMILIES: Dict[str, Family] = {
    "capacity": Family(
        "fig9_capacity",
        lambda case: {
            "streams": int(case["streams"]),
            "bottleneck_bps": float(case["bottleneck_bps"]),
            "cross_traffic_bps": float(case["cross_traffic_bps"])},
        lambda result: (result.total("delivered"), result.total("sent")),
        "streams", 1),
    "pubsub": Family(
        "fig12_pubsub",
        lambda case: {
            "subscribers": int(case["subscribers"]),
            "bottleneck_bps": float(case["bottleneck_bps"])},
        lambda result: (sum(row.delivered for row in result.reader_rows),
                        sum(row.sent_to for row in result.reader_rows)),
        "subscribers", PUBSUB_MIN_SUBSCRIBERS),
}


def _family(case: Dict) -> Family:
    """The :data:`FAMILIES` row ``case`` runs through (``"capacity"``
    for pre-family replay dicts)."""
    name = case.get("family", "capacity")
    if name not in FAMILIES:
        raise ValueError(f"unknown soak family {name!r} "
                         f"(have {sorted(FAMILIES)})")
    return FAMILIES[name]


def case_seed(root_seed: int, index: int) -> int:
    return root_seed * _SEED_STRIDE + index


# ----------------------------------------------------------------------
# Configuration generation
# ----------------------------------------------------------------------
def _random_fault(rng: random.Random, duration: float,
                  links=FAULT_LINKS, nodes=("router",)) -> Dict:
    kind = rng.choice(_FAULT_KINDS)
    at = round(rng.uniform(0.5, max(0.6, duration - 0.5)), 3)
    window = round(rng.uniform(0.3, 1.5), 3)
    if kind == "node_crash":
        return {"kind": kind, "node": rng.choice(nodes), "at": at,
                "duration": window, "lose_state": rng.random() < 0.5}
    link = list(rng.choice(links))
    fault = {"kind": kind, "link": link, "at": at, "duration": window}
    if kind == "loss_burst":
        fault["loss"] = round(rng.uniform(0.05, 0.9), 3)
    elif kind == "link_degrade":
        fault["factor"] = round(rng.uniform(0.1, 0.9), 3)
    return fault


def generate_case(root_seed: int, index: int, duration: float = 6.0,
                  max_streams: int = 8) -> Dict:
    """The fully random configuration for soak run ``index``.

    Pure in ``(root_seed, index)``: the same pair always produces the
    same JSON-able case dict, which is what makes shrinking and replay
    exact.  Two families alternate under one seed stream: the fig 9
    capacity farm and the fig 12 pub-sub fan-out.
    """
    seed = case_seed(root_seed, index)
    rng = random.Random(seed)
    n_faults = rng.randint(0, 4)
    if rng.random() < 0.5:
        return {
            "index": int(index),
            "seed": int(seed),
            "family": "capacity",
            "arm": rng.choice(ARMS),
            "streams": rng.randint(1, max(1, int(max_streams))),
            "duration": float(duration),
            "bottleneck_bps": rng.choice(BOTTLENECKS_BPS),
            "cross_traffic_bps": rng.choice(CROSS_BPS),
            "faults": [_random_fault(rng, duration)
                       for _ in range(n_faults)],
        }
    return {
        "index": int(index),
        "seed": int(seed),
        "family": "pubsub",
        "arm": rng.choice(PUBSUB_ARMS),
        "subscribers": rng.choice((16, 32, 128, 512)),
        "duration": float(duration),
        "bottleneck_bps": rng.choice(PUBSUB_BOTTLENECKS_BPS),
        "faults": [
            _random_fault(rng, duration, links=PUBSUB_FAULT_LINKS,
                          nodes=PUBSUB_FAULT_NODES)
            for _ in range(n_faults)
        ],
    }


def generate_cases(root_seed: int, runs: int, duration: float = 6.0,
                   max_streams: int = 8) -> List[Dict]:
    return [generate_case(root_seed, index, duration, max_streams)
            for index in range(int(runs))]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run_soak_case(case: Dict) -> Dict:
    """Run one case under the full checker suite; picklable verdict.

    ``ok`` is True when the run completed and every invariant (runtime
    and teardown) held.  Violations carry the checker name and message;
    any other exception is reported as a crash — a soak failure either
    way.  ``case["family"]`` names the :data:`FAMILIES` row the case
    runs through.
    """
    from repro.experiments.runner import scenario_function
    from repro.experiments.scenario_registry import FIGURES

    suite = default_suite()
    verdict = {"ok": True, "case": dict(case), "checker": None,
               "message": None, "failure": None, "events": 0}
    try:
        family = _family(case)
        figure = FIGURES[family.figure]
        arms = dict(figure.arms)
        if case["arm"] not in arms:
            raise ValueError(f"unknown {figure.scenario} soak arm "
                             f"{case['arm']!r} (have {sorted(arms)})")
        result = scenario_function(figure.scenario)(
            **arms[case["arm"]], **family.params(case),
            duration=float(case["duration"]), seed=int(case["seed"]),
            fault_plan=case.get("faults") or [], checks=suite)
    except InvariantViolation as violation:
        verdict.update(ok=False, failure="invariant",
                       checker=violation.checker, message=str(violation))
        return verdict
    except Exception as exc:  # noqa: BLE001 - soak reports, never raises
        verdict.update(ok=False, failure="crash",
                       message=f"{type(exc).__name__}: {exc}")
        return verdict
    verdict["delivered"], verdict["sent"] = family.totals(result)
    verdict["events"] = result.events_executed
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
    finally halve the stream count.  Returns the smallest failing case
    found and the number of reduction runs spent.
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
    family = _family(best)
    load_key, floor = family.load_key, family.load_floor
    while best[load_key] > floor:
        candidate = {**best,
                     load_key: max(floor, best[load_key] // 2)}
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
             max_streams: int = 8, jobs: Optional[int] = None,
             shrink: bool = True, shrink_budget: int = 20,
             emit: Optional[Callable[[str], None]] = None) -> Dict:
    """Run ``runs`` random cases; shrink and report every failure.

    Caching is forced off — soak derives its value from re-executing,
    and a verdict must reflect the code under test, never a stale
    entry.  Results merge in case order, so the report is identical at
    any ``jobs``.
    """
    from repro.experiments.runner import ExperimentRunner, RunSpec

    def say(message: str) -> None:
        if emit is not None:
            emit(message)

    cases = generate_cases(root_seed, runs, duration, max_streams)
    runner = ExperimentRunner(jobs=jobs, cache=False)
    say(f"soak: {len(cases)} cases from root seed {root_seed} "
        f"({runner.jobs} jobs)")
    specs = [RunSpec("soak_case", {"case": case}) for case in cases]
    verdicts = runner.payloads(specs)

    failures = []
    total_events = 0
    for verdict in verdicts:
        total_events += verdict.get("events", 0) or 0
        if verdict["ok"]:
            continue
        case = verdict["case"]
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
                load_key = _family(case).load_key
                say(f"soak: shrunk case {case['index']} to "
                    f"{len(shrunk['faults'])} fault(s), "
                    f"{shrunk[load_key]} {load_key} in {spent} runs")
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
