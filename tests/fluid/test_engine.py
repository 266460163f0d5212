"""Unit tests: the fluid engine's share model and ledgers.

Each test pins one analytic fact about
:class:`~repro.fluid.engine.FluidEngine` — exact byte integration,
proportional best-effort sharing, strict-priority reserved service,
fault degradation, governor shedding, epoch coalescing — with
closed-form expected values.  The randomized counterpart lives in
``tests/properties/test_fluid_invariants.py``; the hybrid coupling to
the packet plane is validated end to end in
``tests/scale/test_fig10_hybrid_validation.py``.
"""

import pytest

from repro.check import World, default_suite
from repro.fluid.engine import FluidEngine, MIN_RESIDUAL_FRACTION
from repro.sim.kernel import Kernel


def make_engine(quantum=1e-3, governor_delay=None):
    kernel = Kernel()
    return kernel, FluidEngine(kernel, quantum=quantum,
                               governor_delay=governor_delay)


def test_uncongested_flow_integrates_exactly():
    kernel, engine = make_engine()
    link = engine.add_link("l", 10e6)
    flow = engine.add_flow("f", 2e6, [link])
    kernel.run(until=5.0)
    engine.finalize()
    assert flow.served_share == 1.0
    assert flow.offered_bytes == pytest.approx(2e6 * 5.0 / 8.0, rel=1e-12)
    assert flow.served_bytes == pytest.approx(flow.offered_bytes, rel=1e-12)
    assert flow.lost_bytes == 0.0
    assert flow.active_seconds == pytest.approx(5.0)
    assert link.served_bytes == pytest.approx(flow.served_bytes, rel=1e-12)


def test_best_effort_shares_split_proportionally():
    kernel, engine = make_engine()
    link = engine.add_link("l", 6e6)
    fat = engine.add_flow("fat", 8e6, [link])
    thin = engine.add_flow("thin", 4e6, [link])
    kernel.run(until=4.0)
    engine.finalize()
    # Demand 12 Mbps into 6 Mbps: both flows get share 0.5.
    assert link.be_share == pytest.approx(0.5)
    assert fat.served_share == pytest.approx(0.5)
    assert thin.served_share == pytest.approx(0.5)
    assert fat.served_bytes == pytest.approx(8e6 * 4.0 / 8.0 * 0.5, rel=1e-9)
    assert fat.loss_fraction == pytest.approx(0.5)
    assert link.fluid_served_bps == pytest.approx(6e6)


def test_reserved_class_has_strict_priority():
    kernel, engine = make_engine()
    link = engine.add_link("l", 6e6)
    res = engine.add_flow("res", 4e6, [link], reserved=True)
    be = engine.add_flow("be", 4e6, [link])
    kernel.run(until=1.0)
    engine.finalize()
    assert link.reserved_share == 1.0
    assert res.served_share == 1.0
    # Best effort gets what's left: 2 of 4 Mbps.
    assert link.be_share == pytest.approx(0.5)
    assert be.served_share == pytest.approx(0.5)


def test_overcommitted_reserved_degrades_proportionally():
    kernel, engine = make_engine()
    link = engine.add_link("l", 6e6)
    engine.add_flow("r1", 4e6, [link], reserved=True)
    engine.add_flow("r2", 4e6, [link], reserved=True)
    be = engine.add_flow("be", 1e6, [link])
    kernel.run(until=1.0)
    engine.finalize()
    # 8 Mbps of reserves into 6 Mbps: the class scales to 0.75 and
    # best effort starves entirely.
    assert link.reserved_share == pytest.approx(0.75)
    assert link.be_share == 0.0
    assert be.served_share == 0.0
    assert be.lost_bytes == pytest.approx(be.offered_bytes, rel=1e-9)


def test_path_share_is_product_of_link_shares():
    kernel, engine = make_engine()
    wide = engine.add_link("wide", 8e6)
    narrow = engine.add_link("narrow", 2e6)
    flow = engine.add_flow("f", 4e6, [wide, narrow])
    kernel.run(until=1.0)
    engine.finalize()
    # Uncongested upstream, halved at the narrow hop.
    assert wide.be_share == pytest.approx(1.0)
    assert narrow.be_share == pytest.approx(0.5)
    assert flow.served_share == pytest.approx(0.5)
    # The narrow link only sees the upstream-thinned arrival rate.
    assert narrow.offered_bytes == pytest.approx(4e6 / 8.0, rel=1e-9)


def test_link_failure_and_restore_are_epochs():
    kernel, engine = make_engine()
    link = engine.add_link("l", 10e6)
    flow = engine.add_flow("f", 2e6, [link])
    kernel.schedule(2.0, link.on_link_state, False)
    kernel.schedule(3.0, link.on_link_state, True)
    kernel.run(until=4.0)
    engine.finalize()
    # 3 of 4 seconds served (the failed second is all loss).
    assert flow.offered_bytes == pytest.approx(2e6 * 4.0 / 8.0, rel=1e-9)
    assert flow.lost_bytes == pytest.approx(2e6 * 1.0 / 8.0, rel=1e-6)
    assert flow.served_share == 1.0  # restored at the end
    assert engine.epochs == 3  # setup, fail, restore


def test_immediate_governor_sheds_to_fit():
    kernel, engine = make_engine(governor_delay=0.0)
    link = engine.add_link("l", 10e6)
    a = engine.add_flow("a", 8e6, [link], adaptive=True)
    b = engine.add_flow("b", 8e6, [link], adaptive=True)
    kernel.run(until=1.0)
    engine.finalize()
    # 16 Mbps into 10: share 0.625 < 0.95 triggers the governor, which
    # relaxes both to 5 Mbps in the same epoch; the new total fits.
    assert a.rate_bps == pytest.approx(5e6)
    assert b.rate_bps == pytest.approx(5e6)
    assert a.served_share == pytest.approx(1.0)
    assert engine.governor_transitions == 2
    assert a.shed_bytes > 0.0


def test_delayed_governor_waits_then_sheds():
    kernel, engine = make_engine(governor_delay=1.0)
    link = engine.add_link("l", 10e6)
    flow = engine.add_flow("f", 20e6, [link], adaptive=True)
    kernel.run(until=0.5)
    assert flow.rate_bps == pytest.approx(20e6)  # reaction delay pending
    kernel.run(until=5.0)
    engine.finalize()
    assert flow.rate_bps < 20e6
    assert flow.rate_bps >= 20e6 * FluidEngine.GOVERNOR_FLOOR_FRACTION - 1e-6
    assert engine.governor_transitions >= 1


def test_same_instant_burst_coalesces_to_one_epoch():
    kernel, engine = make_engine()
    link = engine.add_link("l", 1e9)
    for i in range(500):
        engine.add_flow(f"f{i}", 1e6, [link])
    kernel.run(until=1.0)
    engine.finalize()
    assert engine.epochs == 1


def test_registered_packet_load_reduces_residual():
    kernel, engine = make_engine()
    link = engine.add_link("l", 10e6)
    link.register_packet_load(2e6, reserved=True)
    engine.add_flow("f", 4e6, [link])
    kernel.run(until=1.0)
    engine.finalize()
    # Fluid serves its full 4 Mbps; residual for the packet plane is
    # capacity minus *fluid* service (the packet load itself is the
    # packet plane's own business).
    assert link.fluid_served_bps == pytest.approx(4e6)
    assert link.packet_residual_bps == pytest.approx(6e6)
    # The residual floor holds even when fluid demand exceeds capacity.
    engine.set_rate("f", 100e6)
    kernel.run(until=2.0)
    engine.finalize()
    assert link.packet_residual_bps >= 10e6 * MIN_RESIDUAL_FRACTION


def test_remove_flow_stops_its_ledgers():
    kernel, engine = make_engine()
    link = engine.add_link("l", 10e6)
    engine.add_flow("f", 2e6, [link])
    kernel.schedule(2.0, engine.remove_flow, "f")
    kernel.run(until=5.0)
    engine.finalize()
    # The flow integrated exactly its 2 live seconds into the link.
    assert link.offered_bytes == pytest.approx(2e6 * 2.0 / 8.0, rel=1e-9)
    assert not engine.remove_flow("f")  # unknown now: no-op
    assert engine.flows() == []


def test_duplicate_and_invalid_arguments_raise():
    kernel, engine = make_engine()
    link = engine.add_link("l", 10e6)
    engine.add_flow("f", 1e6, [link])
    with pytest.raises(ValueError):
        engine.add_link("l", 5e6)
    with pytest.raises(ValueError):
        engine.add_flow("f", 1e6, [link])
    with pytest.raises(ValueError):
        engine.add_flow("g", -1.0, [link])
    with pytest.raises(ValueError):
        engine.add_flow("g", 1e6, [])
    with pytest.raises(ValueError):
        engine.add_flow("g", 1e6, [link], members=0)
    with pytest.raises(ValueError):
        engine.set_rate("f", -2.0)
    with pytest.raises(ValueError):
        engine.add_link("bad", 0.0)


def test_cohort_books_every_member_on_the_link():
    """1000 x 1.2 Mbps into 100 Mbps as one flow: the flow's own
    ledgers are one member's, the link's are all thousand."""
    kernel, engine = make_engine()
    link = engine.add_link("l", 100e6)
    cohort = engine.add_flow("c", 1.2e6, [link], members=1000)
    kernel.run(until=2.0)
    engine.finalize()
    assert len(engine.flows()) == 1
    assert link.be_share == pytest.approx(100e6 / 1200e6)
    assert cohort.served_share == pytest.approx(1.0 / 12.0)
    assert cohort.offered_bytes == pytest.approx(1.2e6 * 2.0 / 8.0)
    assert link.offered_bytes == pytest.approx(1000 * cohort.offered_bytes)
    assert link.served_bytes == pytest.approx(100e6 * 2.0 / 8.0, rel=1e-9)
    assert link.fluid_be_in_bps == 1000 * 1.2e6
    assert link.fluid_served_bps == pytest.approx(100e6)


def test_governor_counts_one_transition_per_member():
    kernel, engine = make_engine(governor_delay=0.0)
    link = engine.add_link("l", 10e6)
    engine.add_flow("c", 4e6, [link], adaptive=True, members=5)
    kernel.run(until=1.0)
    engine.finalize()
    assert engine.governor_transitions % 5 == 0
    assert engine.governor_transitions >= 5
    assert engine.flow("c").rate_bps == pytest.approx(2e6, rel=0.05)


# ----------------------------------------------------------------------
# set_rate above the nominal (regression, under the full checker suite)
# ----------------------------------------------------------------------
def checked_engine(governor_delay=None):
    kernel, engine = make_engine(governor_delay=governor_delay)
    suite = default_suite().install(World(kernel, fluid=engine))
    return kernel, engine, suite


def test_set_rate_above_nominal_raises_the_nominal():
    """``set_rate`` used to leave ``nominal_bps`` at the admission-time
    rate, so the t=1 epoch of this program raised ``InvariantViolation
    [fluid-conservation] fluid flow offering above its nominal rate``."""
    kernel, engine, suite = checked_engine()
    link = engine.add_link("l", 100e6)
    flow = engine.add_flow("f", 4e6, [link])
    kernel.schedule_at(1.0, engine.set_rate, "f", 20e6)
    kernel.schedule_at(2.0, engine.set_rate, "f", 5e6)
    kernel.run(until=3.0)
    engine.finalize()
    suite.final_check()
    assert suite.events_dispatched >= 3
    # Raised with the rate, and not lowered again: the last second at
    # 5 Mbps is booked as 15 Mbps shed from the 20 Mbps the app wants.
    assert flow.nominal_bps == 20e6
    assert flow.shed_bytes == pytest.approx(15e6 * 1.0 / 8.0)


def test_adaptive_flow_sheds_from_its_raised_nominal():
    """The same staleness made the governor clamp a raised adaptive
    flow back to its *old* nominal and book no shed bytes at all."""
    kernel, engine, suite = checked_engine(governor_delay=0.0)
    link = engine.add_link("l", 10e6)
    flow = engine.add_flow("f", 4e6, [link], adaptive=True)
    kernel.schedule_at(1.0, engine.set_rate, "f", 20e6)
    kernel.run(until=3.0)
    engine.finalize()
    suite.final_check()
    assert flow.nominal_bps == 20e6
    # Shed to what the 10 Mbps link carries, not to the stale 4 Mbps.
    assert flow.rate_bps == pytest.approx(10e6, rel=0.05)
    assert flow.shed_bytes == pytest.approx(
        (20e6 - flow.rate_bps) * 2.0 / 8.0, rel=1e-6)
