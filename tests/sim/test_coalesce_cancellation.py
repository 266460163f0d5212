"""Mid-epoch cancellation: coalesced timers vs fluid-engine teardown.

A :class:`~repro.sim.coalesce.TickCoalescer` cannot cancel an
individual wakeup — a tick's kernel event is shared — so clients that
die mid-epoch (a :class:`~repro.fluid.engine.FluidEngine` closed while
a share recompute is pending, a :class:`PeriodicTicker` stopped from
inside its own tick) must turn their pending callbacks into no-ops.
These tests pin that contract from both sides: nothing fires after the
cancellation, nothing crashes, and the *kernel* stays healthy (the
shared tick event still dispatches, to an empty/defused batch).
"""

import pytest

from repro.fluid.engine import FluidEngine
from repro.sim.coalesce import PeriodicTicker, TickCoalescer
from repro.sim.kernel import Kernel


# ----------------------------------------------------------------------
# FluidEngine.close() with a pending coalesced epoch
# ----------------------------------------------------------------------
def test_engine_close_defuses_pending_epoch_recompute():
    """close() lands between the dirty-mark and its coalesced tick:
    the tick still fires (shared event) but resolves to a no-op."""
    kernel = Kernel()
    engine = FluidEngine(kernel, quantum=1e-3)
    link = engine.add_link("l", 10e6)
    # Mark dirty off-grid so the epoch tick is strictly later...
    kernel.schedule_at(0.0004, engine.add_flow, "f", 2e6, [link])
    # ...and close the engine before that tick (0.001) arrives.
    kernel.schedule_at(0.0006, engine.close)
    kernel.run(until=0.01)
    assert engine.epochs == 0  # the recompute never ran
    assert engine.coalescer.ticks == 1  # but the shared tick did fire
    # The defused engine stays inert: marking dirty again is a no-op.
    engine._mark_dirty()
    kernel.run(until=0.02)
    assert engine.epochs == 0


def test_engine_close_defuses_pending_governor():
    """A scheduled governor transition dies with the engine."""
    kernel = Kernel()
    engine = FluidEngine(kernel, quantum=1e-3, governor_delay=0.5)
    link = engine.add_link("l", 10e6)
    engine.add_flow("f", 40e6, [link], adaptive=True)
    kernel.run(until=0.1)  # epoch ran; governor armed for t=0.5
    assert engine.epochs == 1
    assert engine._governor_pending
    engine.close()
    kernel.run(until=2.0)
    assert engine.governor_transitions == 0
    assert engine.flow("f").rate_bps == pytest.approx(40e6)


def test_same_tick_double_dirty_resolves_once():
    """Two dirty-marks inside one quantum share one recompute; the
    second epoch event (had there been one) would no-op via _dirty."""
    kernel = Kernel()
    engine = FluidEngine(kernel, quantum=1e-3)
    link = engine.add_link("l", 10e6)
    kernel.schedule_at(0.0002, engine.add_flow, "a", 1e6, [link])
    kernel.schedule_at(0.0007, engine.add_flow, "b", 1e6, [link])
    kernel.run(until=0.01)
    assert engine.epochs == 1
    assert engine.flow("a").served_share == 1.0


# ----------------------------------------------------------------------
# PeriodicTicker stopped/cancelled mid-tick
# ----------------------------------------------------------------------
def test_ticker_stopped_from_inside_its_own_tick():
    kernel = Kernel()
    ticker = PeriodicTicker(kernel, interval=0.1)
    seen = []

    def subscriber(now):
        seen.append(now)
        if len(seen) == 3:
            ticker.stop()

    ticker.subscribe(subscriber)
    ticker.start()
    kernel.run(until=2.0)
    assert len(seen) == 3  # not a single tick after the mid-tick stop
    assert kernel.now == 2.0  # and the kernel drained normally


def test_ticker_stop_restart_keeps_single_cadence():
    """stop() during a tick then start() later must not double-tick."""
    kernel = Kernel()
    ticker = PeriodicTicker(kernel, interval=0.1)
    seen = []
    ticker.subscribe(lambda now: seen.append(round(now, 6)))

    def stopper(now):
        if len(seen) == 2:
            ticker.stop()

    ticker.subscribe(stopper)
    kernel.schedule_at(0.35, ticker.start)  # restart between grid points
    ticker.start()
    kernel.run(until=0.6)
    # Ticks at 0.0, 0.1 (stop), then restart at 0.35 -> 0.35, 0.45, 0.55.
    assert seen == [0.0, 0.1, 0.35, 0.45, 0.55]
    assert ticker.ticks == 5


def test_ticker_restarted_inside_its_own_tick_keeps_one_chain():
    """stop(); start() inside a tick: start() arms a fresh first tick,
    and the tick in hand must arm nothing more (one chain, not two)."""
    kernel = Kernel()
    ticker = PeriodicTicker(kernel, interval=1.0)
    seen = []

    def subscriber(now):
        seen.append(now)
        if len(seen) == 3:
            ticker.stop()
            ticker.start()

    ticker.subscribe(subscriber)
    ticker.start()
    kernel.run(until=10.0)
    # 0, 1, 2 (restart: its first tick fires at once), then 2, 3, ... 10.
    assert seen == [0.0, 1.0, 2.0] + [float(t) for t in range(2, 11)]
    assert ticker.ticks == 12
    assert kernel.pending() == 1


def test_unsubscribe_during_tick_takes_effect_next_tick():
    kernel = Kernel()
    ticker = PeriodicTicker(kernel, interval=0.1)
    seen = []
    unsubscribe = ticker.subscribe(lambda now: seen.append(now))

    def leaver(now):
        if len(seen) == 2:
            unsubscribe()

    ticker.subscribe(leaver)
    ticker.start()
    kernel.run(until=0.45)
    # The tick that triggered the unsubscribe still delivered (snapshot
    # semantics); later ticks do not.
    assert len(seen) == 2
    assert ticker.ticks == 5
    assert ticker.subscriber_count == 1


# ----------------------------------------------------------------------
# The fig 10 interleaving: ticker-driven epochs + mid-tick teardown
# ----------------------------------------------------------------------
def test_ticker_driven_epoch_survives_mid_tick_ticker_stop():
    """A tick both (a) marks a fluid epoch dirty and (b) stops the
    ticker — the pending recompute still runs on its own coalesced
    event, with the rates the tick set."""
    kernel = Kernel()
    engine = FluidEngine(kernel, quantum=1e-3)
    link = engine.add_link("l", 10e6)
    engine.add_flow("f", 4e6, [link])
    ticker = PeriodicTicker(kernel, interval=0.25)

    def on_tick(now):
        if now >= 0.5:
            engine.set_rate("f", 20e6)  # dirty-marks an epoch...
            ticker.stop()               # ...then kills the clock

    ticker.subscribe(on_tick)
    ticker.start()
    kernel.run(until=1.0)
    engine.finalize()
    # Setup epoch + the rate-change epoch the dying tick requested.
    assert engine.epochs == 2
    assert engine.flow("f").served_share == pytest.approx(0.5)
    assert ticker.ticks == 3  # 0.0, 0.25, 0.5 — none after the stop


def test_coalescer_outlives_closed_engine_clients():
    """Other clients sharing the engine's coalescer keep working after
    the engine is closed (shared ticks are never cancelled wholesale)."""
    kernel = Kernel()
    engine = FluidEngine(kernel, quantum=1e-3)
    grid: TickCoalescer = engine.coalescer
    link = engine.add_link("l", 10e6)
    fired = []
    kernel.schedule_at(0.0004, engine.add_flow, "f", 2e6, [link])
    # A foreign wakeup coalesced onto the same pending tick as the
    # engine's epoch event.
    kernel.schedule_at(0.0005, grid.call_after, 0.0, fired.append, "x")
    kernel.schedule_at(0.0006, engine.close)
    kernel.run(until=0.01)
    assert fired == ["x"]  # the foreign client still ran
    assert engine.epochs == 0  # the engine's share of the tick no-opped
    assert grid.pending_ticks == 0
