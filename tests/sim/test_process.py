"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Kernel, Process, ProcessError, Signal, Timeout


def test_timeout_advances_clock():
    kernel = Kernel()
    seen = []

    def body():
        yield Timeout(1.5)
        seen.append(kernel.now)
        yield 0.5  # bare numbers are timeouts too
        seen.append(kernel.now)

    Process(kernel, body())
    kernel.run()
    assert seen == [1.5, 2.0]


def test_process_result_recorded():
    kernel = Kernel()

    def body():
        yield 1.0
        return "answer"

    proc = Process(kernel, body())
    kernel.run()
    assert proc.result == "answer"
    assert not proc.alive


def test_signal_wait_receives_value():
    kernel = Kernel()
    signal = Signal(kernel, name="go")
    seen = []

    def waiter():
        value = yield signal
        seen.append((kernel.now, value))

    Process(kernel, waiter())
    kernel.schedule(3.0, signal.fire, "payload")
    kernel.run()
    assert seen == [(3.0, "payload")]


def test_signal_wakes_all_waiters():
    kernel = Kernel()
    signal = Signal(kernel)
    seen = []

    def waiter(label):
        value = yield signal
        seen.append((label, value))

    Process(kernel, waiter("a"))
    Process(kernel, waiter("b"))
    kernel.schedule(1.0, signal.fire, 42)
    kernel.run()
    assert sorted(seen) == [("a", 42), ("b", 42)]


def test_signal_fire_only_wakes_current_waiters():
    kernel = Kernel()
    signal = Signal(kernel)
    assert signal.fire("nobody") == 0  # no waiters yet, value lost


def test_unobserved_exception_propagates():
    kernel = Kernel()

    def body():
        yield 1.0
        raise ValueError("boom")

    Process(kernel, body())
    with pytest.raises(ProcessError, match="boom"):
        kernel.run()


def test_bad_yield_value_rejected():
    kernel = Kernel()

    def body():
        yield "not-a-waitable"

    proc = Process(kernel, body())
    with pytest.raises(ProcessError, match="unsupported value"):
        kernel.run()
    assert isinstance(proc.error, ProcessError)


def test_negative_timeout_rejected():
    with pytest.raises(ProcessError):
        Timeout(-1.0)


def test_two_processes_interleave_deterministically():
    kernel = Kernel()
    trace = []

    def ticker(label, period):
        for _ in range(3):
            yield period
            trace.append((kernel.now, label))

    Process(kernel, ticker("a", 1.0))
    Process(kernel, ticker("b", 1.5))
    kernel.run()
    # Both wake at t=3.0; "b" armed its timeout first (at t=1.5, vs.
    # t=2.0 for "a"), so FIFO tie-breaking runs "b" first.
    assert trace == [
        (1.0, "a"),
        (1.5, "b"),
        (2.0, "a"),
        (3.0, "b"),
        (3.0, "a"),
        (4.5, "b"),
    ]
