"""Tests for the randomized soak harness.

The load-bearing properties: case generation is a pure function of
``(root_seed, index)``; verdicts are identical at any worker count; a
deliberately re-introduced accounting bug is caught, shrunk to a
smaller reproducer, and reported with a working replay command.
"""

import json

import pytest

from repro.net.queues import GuaranteedRateQueue
from repro.pubsub.history import HistoryCache
import repro.check.soak as soak_module
from repro.check import (
    CheckSuite,
    InvariantChecker,
    default_suite,
    generate_case,
    generate_cases,
    replay_command,
    run_soak,
    run_soak_case,
    shrink_case,
)
from repro.check.soak import ARMS, PUBSUB_ARMS, PUBSUB_MIN_SUBSCRIBERS


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
def test_case_generation_is_pure_in_seed_and_index():
    assert generate_case(42, 3) == generate_case(42, 3)
    assert generate_case(42, 3) != generate_case(42, 4)
    assert generate_case(42, 3) != generate_case(43, 3)


def test_cases_are_json_able_and_well_formed():
    families = set()
    for case in generate_cases(7, 16, duration=2.0, max_streams=4):
        assert case == json.loads(json.dumps(case))
        families.add(case["family"])
        if case["family"] == "capacity":
            assert case["arm"] in ARMS
            assert 1 <= case["streams"] <= 4
        else:
            assert case["family"] == "pubsub"
            assert case["arm"] in PUBSUB_ARMS
            assert case["subscribers"] >= PUBSUB_MIN_SUBSCRIBERS
        assert case["duration"] == 2.0
        for fault in case["faults"]:
            assert fault["kind"] in ("link_flap", "loss_burst",
                                     "link_degrade", "node_crash")
            assert fault["at"] >= 0.5
    # Both scenario families appear under one root seed.
    assert families == {"capacity", "pubsub"}


def test_generate_cases_indexes_sequentially():
    cases = generate_cases(7, 5)
    assert [case["index"] for case in cases] == list(range(5))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def test_clean_case_verdict_is_ok_and_informative():
    case = generate_case(1, 0, duration=1.0, max_streams=3)
    verdict = run_soak_case(case)
    assert verdict["ok"], verdict
    assert verdict["events"] > 0
    assert verdict["checked"] > 0
    assert verdict["sent"] >= verdict["delivered"] >= 0
    assert verdict["case"] == case


def test_crash_is_reported_not_raised():
    case = generate_case(1, 0, duration=1.0, max_streams=3)
    verdict = run_soak_case({**case, "arm": "no-such-arm"})
    assert not verdict["ok"]
    assert verdict["failure"] == "crash"
    assert verdict["checker"] is None


def test_unknown_family_is_a_crash_verdict_not_a_raise():
    case = generate_case(1, 0, duration=1.0, max_streams=3)
    verdict = run_soak_case({**case, "family": "no-such-family"})
    assert not verdict["ok"]
    assert verdict["failure"] == "crash"
    assert "unknown soak family 'no-such-family'" in verdict["message"]


def test_soak_report_is_independent_of_jobs():
    kwargs = dict(root_seed=11, runs=4, duration=1.0, max_streams=3,
                  shrink=False)
    serial = run_soak(jobs=1, **kwargs)
    parallel = run_soak(jobs=4, **kwargs)
    assert serial == parallel
    assert serial["ok"]
    assert serial["runs"] == 4
    assert serial["events"] > 0


# ----------------------------------------------------------------------
# The acceptance gate: a re-introduced accounting bug must be caught
# ----------------------------------------------------------------------
def _congested_case(faults=()):
    """A case that exercises demotion-then-overflow in the bottleneck."""
    case = generate_case(5, 0, duration=2.0, max_streams=8)
    case.update(arm="best-effort", streams=6, bottleneck_bps=6e6,
                cross_traffic_bps=4e6, faults=list(faults))
    return case


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
    case = generate_case(1, 2, duration=1.0, max_streams=3)
    assert case["family"] == "capacity"
    verdict = run_soak_case(case)
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
    assert shrunk["streams"] <= case["streams"]
    assert not run_soak_case(shrunk)["ok"]  # still a reproducer


def test_shrink_keeps_the_original_when_nothing_smaller_fails():
    case = generate_case(1, 0, duration=1.0, max_streams=2)
    calls = []

    def always_passes(candidate):
        calls.append(candidate)
        return {"ok": True}

    shrunk, spent = shrink_case(case, budget=5, run=always_passes)
    assert shrunk == case
    assert spent == len(calls) <= 5


def test_soak_driver_reports_shrunk_failure_with_replay(monkeypatch):
    _reintroduce_drop_bug(monkeypatch)
    failing = _congested_case()

    def one_bad_case(root_seed, runs, duration, max_streams):
        return [failing]

    monkeypatch.setattr("repro.check.soak.generate_cases", one_bad_case)
    lines = []
    report = run_soak(root_seed=5, runs=1, jobs=1, shrink_budget=8,
                      emit=lines.append)
    assert not report["ok"]
    (entry,) = report["failures"]
    assert entry["checker"] == "qdisc-accounting"
    assert entry["shrunk"]["streams"] <= failing["streams"]
    assert entry["replay"] == replay_command(entry["shrunk"])
    assert any("FAILED" in line for line in lines)
    assert any("replay with:" in line for line in lines)


# ----------------------------------------------------------------------
# The pub-sub family's canary: a re-introduced history leak
# ----------------------------------------------------------------------
def _pubsub_case(faults=(), subscribers=64):
    """A fig 12 fan-out case in the soak dict shape."""
    case = generate_case(5, 0, duration=2.0)
    return {
        "index": case["index"], "seed": case["seed"],
        "family": "pubsub", "arm": "best-effort",
        "subscribers": subscribers, "duration": 2.0,
        "bottleneck_bps": 60e6, "faults": list(faults),
    }


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
    case = _pubsub_case(subscribers=128, faults=[
        {"kind": "link_flap", "link": ["pub0", "router"],
         "at": 0.6, "duration": 0.4},
    ])
    shrunk, spent = shrink_case(case, budget=12)
    assert 0 < spent <= 12
    assert shrunk["faults"] == []  # irrelevant to the leak: shed
    assert PUBSUB_MIN_SUBSCRIBERS <= shrunk["subscribers"] < 128
    assert not run_soak_case(shrunk)["ok"]  # still a reproducer


def test_soak_driver_reports_a_shrunk_pubsub_failure(monkeypatch):
    """The shrink report names the family's own load axis (a pub-sub
    case has no ``streams``)."""
    _reintroduce_history_leak(monkeypatch)
    failing = _pubsub_case(subscribers=64)
    monkeypatch.setattr("repro.check.soak.generate_cases",
                        lambda *args: [failing])
    lines = []
    report = run_soak(root_seed=5, runs=1, jobs=1, shrink_budget=4,
                      emit=lines.append)
    (entry,) = report["failures"]
    assert entry["checker"] == "pubsub"
    assert entry["shrunk"]["subscribers"] < failing["subscribers"]
    assert any("subscribers in" in line for line in lines)


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
