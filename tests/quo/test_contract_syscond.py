"""Tests for contracts and system condition objects."""

import pytest

from repro.sim import Kernel
from repro.core.metrics import DeliveryRecorder
from repro.quo import (
    Contract,
    LossRateSC,
    Region,
    ValueSC,
)


def two_region_contract(kernel, threshold=0.8):
    return Contract(kernel, "demo", regions=[
        Region("overloaded", lambda s: s["load"] > threshold),
        Region("normal"),
    ])


def test_contract_initial_evaluation():
    kernel = Kernel()
    contract = two_region_contract(kernel)
    load = ValueSC(kernel, "load", initial=0.2)
    contract.attach(load)
    assert contract.evaluate() == "normal"
    assert contract.current_region == "normal"


def test_condition_change_triggers_transition():
    kernel = Kernel()
    contract = two_region_contract(kernel)
    load = ValueSC(kernel, "load", initial=0.2)
    contract.attach(load)
    contract.evaluate()
    load.set(0.9)
    assert contract.current_region == "overloaded"
    assert len(contract.transitions) == 2  # initial + change
    last = contract.transitions[-1]
    assert (last.from_region, last.to_region) == ("normal", "overloaded")
    assert last.snapshot == {"load": 0.9}


def test_no_transition_when_region_unchanged():
    kernel = Kernel()
    contract = two_region_contract(kernel)
    load = ValueSC(kernel, "load", initial=0.2)
    contract.attach(load)
    contract.evaluate()
    load.set(0.3)
    load.set(0.4)
    assert len(contract.transitions) == 1


def test_enter_and_exit_callbacks_fire_in_order():
    kernel = Kernel()
    trace = []
    contract = Contract(kernel, "demo", regions=[
        Region("hot", lambda s: s["load"] > 0.5,
               on_enter=lambda c: trace.append("enter-hot"),
               on_exit=lambda c: trace.append("exit-hot")),
        Region("cool",
               on_enter=lambda c: trace.append("enter-cool"),
               on_exit=lambda c: trace.append("exit-cool")),
    ])
    load = ValueSC(kernel, "load", initial=0.0)
    contract.attach(load)
    contract.evaluate()
    load.set(0.9)
    load.set(0.1)
    assert trace == [
        "enter-cool", "exit-cool", "enter-hot", "exit-hot", "enter-cool",
    ]


def test_first_matching_region_wins():
    kernel = Kernel()
    contract = Contract(kernel, "ordered", regions=[
        Region("critical", lambda s: s["x"] > 10),
        Region("elevated", lambda s: s["x"] > 5),
        Region("normal"),
    ])
    x = ValueSC(kernel, "x", initial=20)
    contract.attach(x)
    assert contract.evaluate() == "critical"
    x.set(7)
    assert contract.current_region == "elevated"


def test_no_matching_region_raises():
    kernel = Kernel()
    contract = Contract(kernel, "bad", regions=[
        Region("only", lambda s: False),
    ])
    with pytest.raises(RuntimeError, match="no region matches"):
        contract.evaluate()


def test_contract_validation():
    kernel = Kernel()
    with pytest.raises(ValueError):
        Contract(kernel, "empty", regions=[])
    with pytest.raises(ValueError):
        Contract(kernel, "dupes", regions=[Region("a"), Region("a")])


def test_duplicate_condition_attachment_rejected():
    kernel = Kernel()
    contract = two_region_contract(kernel)
    load = ValueSC(kernel, "load", initial=0.0)
    contract.attach(load)
    with pytest.raises(ValueError):
        contract.attach(ValueSC(kernel, "load"))


def test_transition_signal_fires():
    kernel = Kernel()
    contract = two_region_contract(kernel)
    load = ValueSC(kernel, "load", initial=0.0)
    contract.attach(load)
    seen = []
    contract.transitioned.wait(seen.append)
    contract.evaluate()
    kernel.run()
    assert len(seen) == 1
    assert seen[0].to_region == "normal"


# ----------------------------------------------------------------------
# System conditions
# ----------------------------------------------------------------------


def test_loss_rate_tracks_send_receive_gap():
    kernel = Kernel()
    loss = LossRateSC(kernel, "loss", window=2.0, update_interval=0.5)
    recorder = loss.recorder = DeliveryRecorder("pipeline")
    loss.start()
    for i in range(20):
        t = i * 0.05
        kernel.schedule_at(t, recorder.record_sent, t)
        if i % 2 == 0:  # half get through
            kernel.schedule_at(t, recorder.record_received, t, t)
    kernel.run(until=1.5)
    assert loss.value == pytest.approx(0.5, abs=0.1)
    loss.stop()


def test_loss_rate_window_edge_is_inclusive():
    """An event exactly ``window`` old still counts (the sliding
    window is ``[now - window, now]``); one an instant older does not."""
    kernel = Kernel()
    loss = LossRateSC(kernel, "loss", window=2.0, update_interval=0.5)
    recorder = loss.recorder = DeliveryRecorder("pipeline")
    loss.start()
    # Sampled at t=3.0, cutoff 1.0: the send at 0.75 has aged out, the
    # send at exactly 1.0 has not, and only the send at 2.0 arrived.
    for t in (0.75, 1.0, 2.0):
        recorder.record_sent(t)
    recorder.record_received(2.0, sent_at=2.0)
    kernel.run(until=3.0)
    assert loss.value == 0.5
    kernel.run(until=3.5)  # cutoff 1.5: only the delivered send is left
    assert loss.value == 0.0
    loss.stop()


def test_loss_rate_zero_when_nothing_sent():
    kernel = Kernel()
    loss = LossRateSC(kernel, "loss")
    loss.start()
    kernel.run(until=2.0)
    assert loss.value == 0.0
    loss.stop()


# ----------------------------------------------------------------------
# Re-entrant evaluation: callbacks that move their own conditions
# ----------------------------------------------------------------------
def test_reentrant_evaluate_defers_and_replays_causally():
    """Regression: an on_enter callback that sets an attached condition
    used to recurse into evaluate() mid-transition, nesting callbacks
    and logging transitions out of causal order.  The nested request
    must now be deferred and replayed after the outer transition
    commits."""
    kernel = Kernel()
    load = ValueSC(kernel, "load", initial=0.0)

    def escalate(contract):
        # Entering "hot" immediately pushes load past the critical bar.
        load.set(1.5)

    contract = Contract(kernel, "demo", regions=[
        Region("critical", lambda s: s["load"] > 1.0),
        Region("hot", lambda s: s["load"] > 0.5, on_enter=escalate),
        Region("cool"),
    ])
    contract.attach(load)
    contract.evaluate()
    load.set(0.7)  # -> hot, whose on_enter escalates -> critical
    assert contract.current_region == "critical"
    assert not contract._evaluating
    chain = [(t.from_region, t.to_region) for t in contract.transitions]
    assert chain == [(None, "cool"), ("cool", "hot"), ("hot", "critical")]
    # Causality: every hop starts where the previous one ended.
    for previous, current in zip(contract.transitions,
                                 contract.transitions[1:]):
        assert current.from_region == previous.to_region


def test_reentrant_exit_callback_is_also_deferred():
    kernel = Kernel()
    load = ValueSC(kernel, "load", initial=0.9)
    contract = Contract(kernel, "demo", regions=[
        Region("hot", lambda s: s["load"] > 0.5,
               on_exit=lambda c: load.set(0.8)),  # re-arms "hot" on exit
        Region("cool"),
    ])
    contract.attach(load)
    contract.evaluate()  # hot
    load.set(0.1)  # leaving hot re-raises load: must land back in hot
    assert contract.current_region == "hot"
    assert not contract._evaluating
    for previous, current in zip(contract.transitions,
                                 contract.transitions[1:]):
        assert current.from_region == previous.to_region


def test_callback_livelock_is_detected():
    kernel = Kernel()
    load = ValueSC(kernel, "load", initial=0.9)
    contract = Contract(kernel, "spin", regions=[
        Region("high", lambda s: s["load"] > 0.5,
               on_enter=lambda c: load.set(0.1)),
        Region("low", on_enter=lambda c: load.set(0.9)),
    ])
    contract.attach(load)
    with pytest.raises(RuntimeError, match="livelock"):
        contract.evaluate()
    # The guard must be released even on the error path.
    assert not contract._evaluating
