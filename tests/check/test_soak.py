"""Tests for the randomized soak harness.

The load-bearing properties: case generation is a pure function of
``(root_seed, index)`` and reaches every fault-taking scenario through
the figure table; verdicts are identical at any worker count; a
deliberately re-introduced accounting bug is caught, shrunk to a
smaller reproducer, and reported with a working replay command.
"""

import json

import pytest

from repro.net.queues import GuaranteedRateQueue
from repro.pubsub.history import HistoryCache
import repro.experiments.soak as soak_module
from repro.check import CheckSuite, InvariantChecker, default_suite
from repro.experiments.soak import (
    case_spec,
    generate_case,
    generate_cases,
    replay_command,
    run_soak,
    run_soak_case,
    shrink_case,
)
from repro.experiments.scenario_registry import ARM_SCENARIOS, FIGURES


def _case(figure, arm, point=None, duration=2.0, faults=()):
    """A soak case dict for one figure point, seeded like case 0 of
    root seed 5."""
    case = {**generate_case(5, 0), "figure": figure, "arm": arm,
            "duration": duration, "faults": list(faults)}
    case.pop("point", None)
    if point is not None:
        case["point"] = point
    return case


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
def test_case_generation_is_pure_in_seed_and_index():
    assert generate_case(42, 3) == generate_case(42, 3)
    assert generate_case(42, 3) != generate_case(42, 4)
    assert generate_case(42, 3) != generate_case(43, 3)


def test_cases_are_json_able_and_well_formed():
    for case in generate_cases(7, 16, duration=2.0):
        assert case == json.loads(json.dumps(case))
        figure = FIGURES[case["figure"]]
        assert figure.scenario in ARM_SCENARIOS
        assert case["arm"] in figure.arm_names()
        assert ("point" in case) == (figure.sweep is not None)
        if figure.sweep is not None:
            assert case["point"] in figure.points
        assert case["duration"] == 2.0
        for fault in case["faults"]:
            assert fault["kind"] in ("link_flap", "loss_burst",
                                     "link_degrade", "node_crash")
            assert type(fault.get("link", fault.get("node"))) is int
            assert fault["at"] >= 0.5


def test_generate_cases_indexes_sequentially():
    cases = generate_cases(7, 5)
    assert [case["index"] for case in cases] == list(range(5))


def test_soak_reaches_every_arm_scenario():
    scenarios = {FIGURES[case["figure"]].scenario
                 for case in generate_cases(1, 32)}
    assert scenarios == set(ARM_SCENARIOS)


@pytest.mark.parametrize("root_seed", [1, 9])
def test_a_shorter_campaign_is_a_prefix(root_seed):
    assert generate_cases(root_seed, 4) == generate_cases(root_seed, 8)[:4]


def test_a_case_runs_the_figures_own_spec():
    """The arm, point and timeline are the figure's; a load phase scales
    with the shortened run, and the faults replace the canonical plan."""
    faults = [{"kind": "link_flap", "link": 2, "at": 1.0, "duration": 0.5}]
    spec = case_spec(_case("table1_network_reservation", "3-full",
                           duration=30.0, faults=faults))
    (arm,) = [params for label, params
              in FIGURES["table1_network_reservation"].arms
              if params["arm"]["name"] == "3-full"]
    assert spec.scenario == "reservation_net"
    assert spec.params == {**arm, "duration": 30.0, "load_start": 6.0,
                           "load_end": 12.0, "fault_plan": faults}
    assert spec.seed == generate_case(5, 0)["seed"]
    spec = case_spec(_case("fig12_pubsub", "ownership", point=1024))
    assert spec.params["subscribers"] == 1024


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def test_clean_case_verdict_is_ok_and_informative():
    case = generate_case(1, 0, duration=1.0)
    verdict = run_soak_case(case)
    assert verdict["ok"], verdict
    assert verdict["events"] > 0
    assert verdict["checked"] > 0
    assert verdict["case"] == case


def test_crash_is_reported_not_raised():
    case = _case("fig9_capacity", "reserves", point=2, duration=1.0, faults=[
        {"kind": "link_flap", "link": ["no", "such"], "at": 0.5,
         "duration": 0.2}])
    verdict = run_soak_case(case)
    assert not verdict["ok"]
    assert verdict["failure"] == "crash"
    assert verdict["checker"] is None
    assert verdict["message"].startswith("FaultPlanError: ")


def test_a_case_naming_no_soak_figure_or_arm_is_refused():
    with pytest.raises(ValueError, match="no soak figure 'ablation_ecn'"):
        run_soak_case(_case("ablation_ecn", "RED + ECN"))
    with pytest.raises(ValueError, match="unknown arm 'no-such-arm'"):
        run_soak_case(_case("fig9_capacity", "no-such-arm", point=2))


def test_soak_report_is_independent_of_jobs():
    kwargs = dict(root_seed=11, runs=4, duration=1.0, shrink=False)
    serial = run_soak(jobs=1, **kwargs)
    parallel = run_soak(jobs=4, **kwargs)
    assert serial == parallel
    assert serial["ok"]
    assert serial["runs"] == 4
    assert serial["events"] > 0


# ----------------------------------------------------------------------
# The acceptance gate: a re-introduced accounting bug must be caught
# ----------------------------------------------------------------------
#: Where fig 9's congestion drops: the bottleneck's egress queue.
_BOTTLENECK = "qdisc='router.router->dst'"


def _congested_case(faults=()):
    """A fig 9 case whose bottleneck overflows: demotion, then drops."""
    return _case("fig9_capacity", "best-effort", point=16, faults=faults)


def _reintroduce_drop_bug(monkeypatch):
    """Undo exactly-once drop accounting: a guaranteed-rate queue
    refuses packets without booking them."""
    monkeypatch.setattr(GuaranteedRateQueue, "_drop",
                        lambda self, packet: False)


def test_reintroduced_drop_bug_is_caught(monkeypatch):
    case = _congested_case()
    assert run_soak_case(case)["ok"]  # healthy code: clean
    _reintroduce_drop_bug(monkeypatch)
    verdict = run_soak_case(case)
    assert not verdict["ok"]
    assert verdict["failure"] == "invariant"
    assert verdict["checker"] == "qdisc-accounting"
    assert "drop not booked" in verdict["message"]
    assert _BOTTLENECK in verdict["message"]


class _RefusesEnqueue(InvariantChecker):
    """Fails at the first ``hop.enqueue``: the first send of the fig 9
    ``capacity-driver``, made inside that sim ``Process``."""

    name = "refuses-enqueue"
    layers = ("net",)
    kinds = frozenset(("hop.enqueue",))

    def on_event(self, record):
        self.fail("planted per-record failure")


def test_a_violation_under_a_process_is_an_invariant_verdict(monkeypatch):
    """A violation raised inside a sim ``Process`` once reached the soak
    harness wrapped in ``ProcessError``: a "crash" naming no checker."""
    monkeypatch.setattr(soak_module, "default_suite", lambda: CheckSuite(
        default_suite().checkers + [_RefusesEnqueue()]))
    verdict = run_soak_case(_case("fig9_capacity", "adaptive", point=2,
                                  duration=1.0))
    assert not verdict["ok"]
    assert verdict["failure"] == "invariant"
    assert verdict["checker"] == "refuses-enqueue"
    assert "planted per-record failure" in verdict["message"]


def test_shrink_reduces_the_failing_case(monkeypatch):
    _reintroduce_drop_bug(monkeypatch)
    case = _congested_case(faults=[
        {"kind": "link_flap", "link": ["src", "router"],
         "at": 0.6, "duration": 0.4},
        {"kind": "loss_burst", "link": ["router", "dst"],
         "at": 1.0, "duration": 0.5, "loss": 0.3},
    ])
    shrunk, spent = shrink_case(case, budget=12)
    assert 0 < spent <= 12
    # The faults are irrelevant to this bug, so shrinking sheds them.
    assert shrunk["faults"] == []
    assert shrunk["point"] < case["point"]
    verdict = run_soak_case(shrunk)
    assert not verdict["ok"]  # still a reproducer
    assert _BOTTLENECK in verdict["message"]


def test_shrink_keeps_the_original_when_nothing_smaller_fails():
    case = generate_case(1, 0, duration=1.0)
    calls = []

    def always_passes(candidate):
        calls.append(candidate)
        return {"ok": True}

    shrunk, spent = shrink_case(case, budget=5, run=always_passes)
    assert shrunk == case
    assert spent == len(calls) <= 5


@pytest.mark.parametrize("needed", [(3,), (1, 3)])
def test_shrink_keeps_exactly_the_faults_a_failure_needs(needed):
    """The halving and one-at-a-time phases, which the canaries never
    reach (their bugs need no fault at all)."""
    faults = [{"kind": "link_flap", "link": index, "at": 1.0 + index,
               "duration": 0.5} for index in range(5)]
    case = _case("fig8_fault_adaptation", "static", faults=faults)

    def fails_with_needed(candidate):
        return {"ok": not all(faults[index] in candidate["faults"]
                              for index in needed)}

    shrunk, _ = shrink_case(case, run=fails_with_needed)
    assert shrunk["faults"] == [faults[index] for index in needed]


def test_soak_driver_reports_shrunk_failure_with_replay(monkeypatch):
    _reintroduce_drop_bug(monkeypatch)
    failing = _congested_case()
    monkeypatch.setattr("repro.experiments.soak.generate_cases",
                        lambda *args: [failing])
    lines = []
    report = run_soak(root_seed=5, runs=1, jobs=1, shrink_budget=8,
                      emit=lines.append)
    assert not report["ok"]
    (entry,) = report["failures"]
    assert entry["checker"] == "qdisc-accounting"
    assert _BOTTLENECK in entry["message"]
    assert entry["shrunk"]["point"] < failing["point"]
    assert entry["replay"] == replay_command(entry["shrunk"])
    assert any("FAILED" in line for line in lines)
    assert any("streams=8 in" in line for line in lines)
    assert any("replay with:" in line for line in lines)


# ----------------------------------------------------------------------
# The pub-sub canary: a re-introduced history leak
# ----------------------------------------------------------------------
def _pubsub_case(faults=(), subscribers=128):
    """A fig 12 fan-out case."""
    return _case("fig12_pubsub", "best-effort", point=subscribers,
                 faults=faults)


def _reintroduce_history_leak(monkeypatch):
    """Undo the history resource bound: caches grow without limit."""
    def leaky_add(self, sample):
        self._samples.append(sample)
        self.accepted += 1
        held = len(self._samples)
        if held > self.max_held:
            self.max_held = held
        return True

    monkeypatch.setattr(HistoryCache, "add", leaky_add)


def test_reintroduced_history_leak_is_caught(monkeypatch):
    case = _pubsub_case()
    assert run_soak_case(case)["ok"]  # healthy code: clean
    _reintroduce_history_leak(monkeypatch)
    verdict = run_soak_case(case)
    assert not verdict["ok"]
    assert verdict["failure"] == "invariant"
    assert verdict["checker"] == "pubsub"
    assert "exceeded its declared depth" in verdict["message"]


def test_shrink_reduces_the_pubsub_case(monkeypatch):
    _reintroduce_history_leak(monkeypatch)
    case = _pubsub_case(subscribers=1024, faults=[
        {"kind": "link_flap", "link": ["pub0", "router"],
         "at": 0.6, "duration": 0.4},
    ])
    shrunk, spent = shrink_case(case, budget=12)
    assert 0 < spent <= 12
    assert shrunk["faults"] == []  # irrelevant to the leak: shed
    assert shrunk["point"] == 128  # halved down to the figure's smallest
    assert not run_soak_case(shrunk)["ok"]  # still a reproducer


def test_soak_driver_reports_a_shrunk_pubsub_failure(monkeypatch):
    """The shrink report names the figure's own sweep axis."""
    _reintroduce_history_leak(monkeypatch)
    failing = _pubsub_case(subscribers=1024)
    monkeypatch.setattr("repro.experiments.soak.generate_cases",
                        lambda *args: [failing])
    lines = []
    report = run_soak(root_seed=5, runs=1, jobs=1, shrink_budget=4,
                      emit=lines.append)
    (entry,) = report["failures"]
    assert entry["checker"] == "pubsub"
    assert entry["shrunk"]["point"] < failing["point"]
    assert any("subscribers=" in line for line in lines)


def test_replayed_pubsub_case_reproduces_the_verdict(monkeypatch):
    _reintroduce_history_leak(monkeypatch)
    case = _pubsub_case()
    payload = replay_command(case).split("--replay ", 1)[1].strip("'")
    verdict = run_soak_case(json.loads(payload))
    assert not verdict["ok"]
    assert verdict["checker"] == "pubsub"


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def test_replay_command_round_trips_the_case():
    case = generate_case(3, 1)
    command = replay_command(case)
    assert command.startswith("repro soak --replay '")
    payload = command.split("--replay ", 1)[1].strip("'")
    assert json.loads(payload) == case


def test_replayed_case_reproduces_the_verdict(monkeypatch):
    _reintroduce_drop_bug(monkeypatch)
    case = _congested_case()
    payload = replay_command(case).split("--replay ", 1)[1].strip("'")
    verdict = run_soak_case(json.loads(payload))
    assert not verdict["ok"]
    assert verdict["checker"] == "qdisc-accounting"
    assert _BOTTLENECK in verdict["message"]


def test_fig11_plans_install_on_each_cases_own_graph():
    """Index targets resolve against the Waxman graph the case's own
    seed builds, so no drawn plan names a link that graph lacks."""
    cases = [case for case in generate_cases(3, 64, duration=1.0)
             if case["figure"] == "fig11_route" and case["faults"]]
    assert len(cases) == 2  # at two seeds, so on two different graphs
    for case in cases:
        verdict = run_soak_case(case)
        assert verdict["ok"], verdict
