"""The farm's frame clock (a PeriodicTicker): one kernel event per tick,
deterministic fan-out."""

import pytest

from repro.sim import Kernel, PeriodicTicker


def test_interval_must_be_positive():
    kernel = Kernel()
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            PeriodicTicker(kernel, bad)


def test_ticks_fire_on_the_grid_in_subscription_order():
    kernel = Kernel()
    clock = PeriodicTicker(kernel, interval=0.5)
    calls = []
    clock.subscribe(lambda now: calls.append(("a", now)))
    clock.subscribe(lambda now: calls.append(("b", now)))
    clock.start()
    kernel.run(until=1.6)
    # First tick at 0.0, then 0.5 and 1.0 and 1.5; a before b each time.
    assert clock.ticks == 4
    assert calls == [("a", 0.0), ("b", 0.0), ("a", 0.5), ("b", 0.5),
                     ("a", 1.0), ("b", 1.0), ("a", 1.5), ("b", 1.5)]


def test_one_kernel_event_per_tick_regardless_of_subscribers():
    kernel = Kernel()
    clock = PeriodicTicker(kernel, interval=0.1)
    for _ in range(50):
        clock.subscribe(lambda now: None)
    clock.start()
    kernel.run(until=1.0)
    # 11 ticks (0.0 .. 1.0): event count stays O(ticks), not O(subs).
    assert clock.ticks == 11
    assert kernel.events_executed <= clock.ticks + 1


def test_unsubscribe_and_stop():
    kernel = Kernel()
    clock = PeriodicTicker(kernel, interval=0.25)
    seen = []
    unsubscribe = clock.subscribe(lambda now: seen.append(now))
    clock.start()
    clock.start()  # idempotent: no second event chain
    kernel.run(until=0.6)
    assert seen == [0.0, 0.25, 0.5]
    unsubscribe()
    unsubscribe()  # double-deregistration is a no-op
    clock.stop()
    kernel.run(until=2.0)
    assert seen == [0.0, 0.25, 0.5]
    assert clock.subscriber_count == 0


def test_mid_tick_subscription_takes_effect_next_tick():
    kernel = Kernel()
    clock = PeriodicTicker(kernel, interval=1.0)
    late = []

    def first(now):
        if now == 0.0:
            clock.subscribe(lambda at: late.append(at))

    clock.subscribe(first)
    clock.start()
    kernel.run(until=2.1)
    assert late == [1.0, 2.0]  # not called at 0.0
