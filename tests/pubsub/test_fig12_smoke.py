"""Fig 12 integration smoke: every arm, small scale, full checker suite.

These runs exercise the network-mode paths the unit tests avoid —
heartbeat datagrams, reliable streams, EF admission grants, the fluid
tail — with :func:`repro.check.default_suite` (including the
:class:`~repro.check.invariants.PubSubChecker`) attached, so any
protocol-level accounting drift fails loudly here before it reaches
the benchmark gauntlet.
"""

import pytest

from repro.check import default_suite
from repro.experiments.pubsub_exp import (
    LATE_PER_TOPIC,
    PubSubArm,
    TOPICS,
    MEASURED_PER_TOPIC,
    pubsub_arms,
    run_pubsub_experiment,
)

SUBS = 64
DURATION = 3.0


def expected_matches(arm):
    """Matches the broker must form for one run of ``arm``.

    Every measured reader matches every writer on its topic (two for
    the ownership arms); the durable arm's late-joiner wave adds one
    more reader per topic.
    """
    per_reader = 2 if arm.ownership else 1
    reader_count = TOPICS * MEASURED_PER_TOPIC
    if arm.durable:
        reader_count += TOPICS * LATE_PER_TOPIC
    return reader_count * per_reader


@pytest.mark.parametrize(
    "arm", pubsub_arms(), ids=lambda arm: arm.name)
def test_arm_passes_the_invariant_suite(arm):
    result = run_pubsub_experiment(
        arm, subscribers=SUBS, duration=DURATION, seed=3,
        checks=default_suite())
    assert result.events_executed > 0
    assert result.matches_formed == expected_matches(arm)
    assert all(row.delivered > 0 for row in result.reader_rows)


def test_reliable_arm_is_exactly_once_under_faults():
    result = run_pubsub_experiment(
        PubSubArm("reliable", reliable=True, faults=True),
        subscribers=SUBS, duration=DURATION, seed=3,
        checks=default_suite())
    assert result.exactly_once
    assert result.grants == TOPICS * MEASURED_PER_TOPIC
    assert result.delivery_fraction >= 0.99


def test_fault_plan_override_makes_a_faulted_arm_clean():
    """``fault_plan=[]`` must suppress the arm's canonical faults."""
    arm = PubSubArm("best-effort", faults=True)
    faulted = run_pubsub_experiment(
        arm, subscribers=SUBS, duration=DURATION, seed=3)
    clean = run_pubsub_experiment(
        arm, subscribers=SUBS, duration=DURATION, seed=3, fault_plan=[],
        checks=default_suite())
    assert clean.delivery_fraction > faulted.delivery_fraction
    assert clean.delivery_fraction >= 0.99


def test_result_pickles_without_live_actors():
    """The in-process result has no live attribute and equals its
    round trip."""
    import pickle

    result = run_pubsub_experiment(
        PubSubArm("adaptive", adaptive=True),
        subscribers=SUBS, duration=DURATION, seed=3)
    assert not ({"broker", "engine", "writers", "readers", "qoskets"}
                & set(vars(result)))
    blob = pickle.dumps(result)
    clone = pickle.loads(blob)
    assert pickle.dumps(clone) == blob
    assert vars(clone).keys() == vars(result).keys()
    assert clone.mean_fps == result.mean_fps
    assert clone.reader_rows == result.reader_rows
