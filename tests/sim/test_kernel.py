"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Kernel, SimulationError


def test_events_fire_in_time_order():
    kernel = Kernel()
    fired = []
    kernel.schedule(2.0, fired.append, "late")
    kernel.schedule(1.0, fired.append, "early")
    kernel.schedule(1.5, fired.append, "middle")
    kernel.run()
    assert fired == ["early", "middle", "late"]
    assert kernel.now == 2.0


def test_same_time_events_fire_fifo():
    kernel = Kernel()
    fired = []
    for label in range(10):
        kernel.schedule(1.0, fired.append, label)
    kernel.run()
    assert fired == list(range(10))


def test_schedule_at_absolute_time():
    kernel = Kernel(start_time=5.0)
    fired = []
    kernel.schedule_at(7.5, fired.append, "x")
    kernel.run()
    assert fired == ["x"]
    assert kernel.now == 7.5


def test_negative_delay_rejected():
    kernel = Kernel()
    with pytest.raises(SimulationError):
        kernel.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    kernel = Kernel(start_time=10.0)
    with pytest.raises(SimulationError):
        kernel.schedule_at(9.0, lambda: None)


def test_cancelled_event_does_not_fire():
    kernel = Kernel()
    fired = []
    handle = kernel.schedule(1.0, fired.append, "cancelled")
    kernel.schedule(2.0, fired.append, "kept")
    handle.cancel()
    kernel.run()
    assert fired == ["kept"]


def test_cancel_is_idempotent():
    kernel = Kernel()
    handle = kernel.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    kernel.run()
    assert kernel.events_executed == 0


def test_run_until_stops_clock_at_horizon():
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, fired.append, "in")
    kernel.schedule(5.0, fired.append, "out")
    kernel.run(until=3.0)
    assert fired == ["in"]
    assert kernel.now == 3.0
    # The out-of-horizon event survives and can still run later.
    kernel.run()
    assert fired == ["in", "out"]
    assert kernel.now == 5.0


def test_run_until_advances_clock_even_with_no_events():
    kernel = Kernel()
    kernel.run(until=42.0)
    assert kernel.now == 42.0


def test_stop_halts_run():
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, fired.append, "a")

    def stopper():
        fired.append("stop")
        kernel.stop()

    kernel.schedule(2.0, stopper)
    kernel.schedule(3.0, fired.append, "never")
    kernel.run()
    assert fired == ["a", "stop"]
    assert kernel.now == 2.0


def test_events_scheduled_during_run_execute():
    kernel = Kernel()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            kernel.schedule(1.0, chain, n + 1)

    kernel.schedule(0.0, chain, 0)
    kernel.run()
    assert fired == [0, 1, 2, 3]
    assert kernel.now == 3.0


def test_peek_and_pending_skip_cancelled():
    kernel = Kernel()
    h1 = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    assert kernel.peek() == 1.0
    assert kernel.pending() == 2
    h1.cancel()
    assert kernel.peek() == 2.0
    assert kernel.pending() == 1


def test_reentrant_run_rejected():
    kernel = Kernel()

    def nested():
        with pytest.raises(SimulationError):
            kernel.run()

    kernel.schedule(1.0, nested)
    kernel.run()


def test_zero_delay_event_fires_at_current_time():
    kernel = Kernel()
    times = []
    kernel.schedule(1.0, lambda: kernel.schedule(0.0, lambda: times.append(kernel.now)))
    kernel.run()
    assert times == [1.0]


def test_events_executed_counter():
    kernel = Kernel()
    for _ in range(5):
        kernel.schedule(1.0, lambda: None)
    kernel.run()
    assert kernel.events_executed == 5


# ----------------------------------------------------------------------
# Tombstone accounting and heap compaction under cancel/reschedule churn
# ----------------------------------------------------------------------
def test_pending_count_tracks_cancellations():
    kernel = Kernel()
    handles = [kernel.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert kernel.pending() == 10
    for handle in handles[:4]:
        handle.cancel()
    assert kernel.pending() == 6
    # Tombstones still occupy heap slots until popped or compacted.
    assert kernel.heap_size() == 10


def test_cancel_after_fire_does_not_corrupt_tombstone_count():
    kernel = Kernel()
    handle = kernel.schedule(1.0, lambda: None)
    kernel.schedule(2.0, lambda: None)
    kernel.run()
    # Cancelling an already-executed event must not skew accounting.
    handle.cancel()
    assert kernel.pending() == 0
    assert kernel.heap_size() == 0


def test_cancel_reschedule_churn_does_not_grow_heap():
    """Heavy cancel/reschedule churn (the preemptive-CPU pattern) must
    keep the heap bounded via compaction, not accumulate tombstones."""
    kernel = Kernel()
    live = None
    rounds = 20_000

    def noop():
        pass

    for i in range(rounds):
        if live is not None:
            live.cancel()
        live = kernel.schedule(float(i + 1), noop)
    # One live event plus at most a compaction-threshold's worth of
    # tombstones; without compaction the heap would hold ~20k entries.
    assert kernel.pending() == 1
    assert kernel.heap_size() <= 2 * Kernel.COMPACT_MIN_SIZE
    assert kernel.compactions > 0
    kernel.run()
    assert kernel.events_executed == 1
    assert kernel.heap_size() == 0


def test_compaction_preserves_event_order():
    """Compaction re-heapifies; (time, seq) total order guarantees the
    pop sequence — and hence simulation results — are unchanged."""

    def run(compact_min):
        kernel = Kernel()
        kernel.COMPACT_MIN_SIZE = compact_min
        fired = []
        handles = []
        for i in range(500):
            handles.append(
                kernel.schedule(float((i * 37) % 100), fired.append, i)
            )
        # Cancel a deterministic half to force tombstone churn, then
        # add more events to trigger (or not trigger) compaction.
        for i, handle in enumerate(handles):
            if i % 2 == 0:
                handle.cancel()
        for i in range(500, 700):
            kernel.schedule(float((i * 37) % 100), fired.append, i)
        kernel.run()
        return fired

    eager = run(compact_min=8)       # compacts many times
    never = run(compact_min=10**9)   # never compacts
    assert eager == never


# ----------------------------------------------------------------------
# rearm() — allocation-free re-scheduling of fired handles
# ----------------------------------------------------------------------
def test_rearm_pending_event_rejected():
    kernel = Kernel()
    event = kernel.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        kernel.rearm(event, 1.0)


def test_rearm_negative_delay_rejected():
    kernel = Kernel()
    fired = []
    event = kernel.schedule(0.0, fired.append, "x")
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.rearm(event, -1.0)


def test_rearm_replaces_args_and_revives_cancelled_handle():
    kernel = Kernel()
    fired = []
    event = kernel.schedule(1.0, fired.append, "first")
    kernel.run()
    # The handle has fired; cancel() on it is a no-op for the queue,
    # and rearm() must revive it with the new args.
    event.cancel()
    kernel.rearm(event, 2.0, "second")
    assert not event.cancelled
    kernel.run()
    assert fired == ["first", "second"]
    assert kernel.now == 3.0


def test_events_executed_accumulates_across_runs():
    kernel = Kernel()
    kernel.schedule(1.0, lambda: None)
    kernel.run(until=2.0)
    kernel.schedule(1.0, lambda: None)
    kernel.schedule(1.5, lambda: None)
    kernel.run()
    assert kernel.events_executed == 3


def test_stop_mid_run_keeps_counter_exact():
    kernel = Kernel()
    fired = []

    def firing(label):
        fired.append(label)
        if label == 2:
            kernel.stop()

    for i in range(5):
        kernel.schedule(float(i), firing, i)
    kernel.run()
    assert fired == [0, 1, 2]
    assert kernel.events_executed == 3
    kernel.run()
    assert fired == [0, 1, 2, 3, 4]
    assert kernel.events_executed == 5
