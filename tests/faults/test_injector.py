"""FaultInjector: compiling plans onto a live network simulation."""

import random

import pytest

from repro.sim import Kernel
from repro.sim.rng import RngRegistry
from repro.oskernel import Host
from repro.net import DatagramSocket, FlowSpec, GuaranteedRateQueue, Network
from repro.faults import FaultEvent, FaultInjector, FaultPlan, FaultPlanError
from repro.quo.syscond import FaultReporterSC
from repro.experiments.runner import scenario_function
from repro.experiments.scenario_registry import FIGURES
from repro.obs import RingBufferSink, Tracer


def rig(kernel):
    """src -- r1 -- dst with IntServ-capable egress queues."""
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("src", "dst"):
        net.attach_host(Host(kernel, name))
    r1 = net.add_router("r1")

    def q():
        return GuaranteedRateQueue(kernel, band_capacity=50)

    net.link("src", r1, qdisc_a=q(), qdisc_b=q())
    net.link(r1, "dst", qdisc_a=q(), qdisc_b=q())
    net.compute_routes()
    net.enable_intserv()
    return net, r1


def plan_of(*events):
    return FaultPlan(list(events))


# ----------------------------------------------------------------------
# Link faults
# ----------------------------------------------------------------------
def test_link_flap_cuts_and_restores():
    kernel = Kernel()
    net, _ = rig(kernel)
    link = net.link_between("r1", "dst")
    FaultInjector(kernel, net).install(plan_of(
        FaultEvent("link_flap", link=["r1", "dst"], at=1.0, duration=2.0)))

    states = {}
    kernel.schedule(0.5, lambda: states.setdefault("before", link.up))
    kernel.schedule(2.0, lambda: states.setdefault("during", link.up))
    kernel.schedule(3.5, lambda: states.setdefault("after", link.up))
    kernel.run(until=4.0)
    assert states == {"before": True, "during": False, "after": True}


def test_link_degrade_scales_bandwidth_then_restores():
    kernel = Kernel()
    net, _ = rig(kernel)
    link = net.link_between("r1", "dst")
    nominal = link.bandwidth_bps
    FaultInjector(kernel, net).install(plan_of(
        FaultEvent("link_degrade", link=["r1", "dst"], at=1.0, duration=2.0,
                   factor=0.1)))

    seen = {}
    kernel.schedule(2.0, lambda: seen.setdefault("during", link.bandwidth_bps))
    kernel.run(until=4.0)
    assert seen["during"] == pytest.approx(nominal * 0.1)
    assert link.bandwidth_bps == pytest.approx(nominal)


def test_unknown_link_is_an_install_time_error():
    kernel = Kernel()
    net, _ = rig(kernel)
    with pytest.raises(FaultPlanError, match="link_flap:r1-nowhere.*src-r1"):
        FaultInjector(kernel, net).install(plan_of(
            FaultEvent("link_flap", link=["r1", "nowhere"], at=0.0,
                       duration=1.0)))


# ----------------------------------------------------------------------
# Loss bursts
# ----------------------------------------------------------------------
def _count_burst_deliveries(seed):
    kernel = Kernel()
    net, _ = rig(kernel)
    got = []
    DatagramSocket(kernel, net.nic_of("dst"), port=7,
                   on_receive=lambda payload, pkt: got.append(payload))
    sender = DatagramSocket(kernel, net.nic_of("src"))
    for i in range(200):
        kernel.schedule(0.01 * i, sender.send_to, "dst", 7, i, 500)
    injector = FaultInjector(kernel, net,
                             rng=RngRegistry(seed=seed).stream("faults"))
    injector.install(plan_of(
        FaultEvent("loss_burst", link=["r1", "dst"], at=0.5, duration=1.0,
                   loss=0.5)))
    kernel.run(until=3.0)
    return got


def test_loss_burst_drops_only_inside_window_and_is_deterministic():
    got = _count_burst_deliveries(seed=1)
    # Outside the window nothing is lost; inside, ~half the packets go.
    lost = set(range(200)) - set(got)
    assert lost, "the burst must actually drop packets"
    assert all(0.5 <= 0.01 * i < 1.5 for i in lost)
    assert 20 <= len(lost) <= 80  # p=0.5 over ~100 packets

    assert _count_burst_deliveries(seed=1) == got
    assert _count_burst_deliveries(seed=2) != got


def test_loss_burst_clears_link_state_after_window():
    kernel = Kernel()
    net, _ = rig(kernel)
    link = net.link_between("r1", "dst")
    FaultInjector(kernel, net, rng=random.Random(1)).install(plan_of(
        FaultEvent("loss_burst", link=["r1", "dst"], at=0.5, duration=1.0,
                   loss=0.9)))
    kernel.run(until=2.0)
    assert link.loss_probability == 0.0
    assert link.loss_rng is None


def test_loss_burst_without_rng_is_an_install_time_error():
    kernel = Kernel()
    net, _ = rig(kernel)
    with pytest.raises(ValueError, match="need an rng stream"):
        FaultInjector(kernel, net).install(plan_of(
            FaultEvent("loss_burst", link=["r1", "dst"], at=0.0,
                       duration=1.0, loss=0.5)))


# ----------------------------------------------------------------------
# Node crash and RSVP state faults
# ----------------------------------------------------------------------
def establish(kernel, net, flow_id="video", rate=1.2e6):
    net.nic_of("src").rsvp_agent.announce_path(flow_id, "dst")
    kernel.run(until=kernel.now + 0.1)
    reservation = net.nic_of("dst").rsvp_agent.reserve(
        flow_id, FlowSpec(rate, 20_000))
    kernel.run(until=kernel.now + 0.5)
    assert reservation.is_established
    return reservation


def test_node_crash_fails_attached_links_and_drops_rsvp_state():
    kernel = Kernel()
    net, r1 = rig(kernel)
    establish(kernel, net)
    egress = r1.egress_for("dst")
    assert "video" in egress.qdisc.reserved_flows()
    links = [net.link_between("src", "r1"), net.link_between("r1", "dst")]

    start = kernel.now
    FaultInjector(kernel, net).install(plan_of(
        FaultEvent("node_crash", node="r1", at=1.0, duration=2.0)))
    seen = {}
    kernel.schedule(2.0, lambda: seen.setdefault(
        "down", [link.up for link in links]))
    kernel.run(until=start + 4.0)
    assert seen["down"] == [False, False]
    assert all(link.up for link in links)
    # lose_state: the router rebooted without its reservation table.
    assert "video" not in egress.qdisc.reserved_flows()
    assert r1.rsvp_agent.reserved_rate(egress) == 0.0


def test_node_crash_can_keep_state():
    kernel = Kernel()
    net, r1 = rig(kernel)
    establish(kernel, net)
    egress = r1.egress_for("dst")
    start = kernel.now
    FaultInjector(kernel, net).install(plan_of(
        FaultEvent("node_crash", node="r1", at=1.0, duration=1.0,
                   lose_state=False)))
    kernel.run(until=start + 3.0)
    # The booked rate leaves the ledger the instant the links die —
    # phantom capacity on a dead egress is the leak on_link_down fixes.
    assert "video" not in egress.qdisc.reserved_flows()
    assert r1.rsvp_agent.reserved_rate(egress) == 0.0
    # But unlike lose_state=True, the router kept its signaling state:
    # the receiver can re-reserve without waiting for a fresh PATH.
    reservation = net.nic_of("dst").rsvp_agent.reserve(
        "video", FlowSpec(1.2e6, 20_000))
    kernel.run(until=kernel.now + 0.5)
    assert reservation.is_established
    assert "video" in egress.qdisc.reserved_flows()


def test_resv_loss_silently_removes_installed_reservation():
    kernel = Kernel()
    net, r1 = rig(kernel)
    establish(kernel, net)
    egress = r1.egress_for("dst")
    start = kernel.now
    FaultInjector(kernel, net).install(plan_of(
        FaultEvent("resv_loss", flow="video", at=1.0)))
    kernel.run(until=start + 2.0)
    assert "video" not in egress.qdisc.reserved_flows()
    # Silent loss: no signaling, so the endpoints still believe in it.
    assert net.nic_of("dst").rsvp_agent.reservations["video"].is_established


def test_resv_loss_repaired_by_resignal():
    """Nothing refreshes a lost reservation: it stays lost until the
    sender re-signals, and then the new epoch's RESV re-installs it."""
    kernel = Kernel()
    net, r1 = rig(kernel)
    establish(kernel, net)
    egress = r1.egress_for("dst")
    start = kernel.now
    FaultInjector(kernel, net).install(plan_of(
        FaultEvent("resv_loss", flow="video", at=1.0)))
    seen = {}
    kernel.schedule(1.9, lambda: seen.setdefault(
        "dropped", "video" in egress.qdisc.reserved_flows()))
    kernel.schedule(2.0, net.nic_of("src").rsvp_agent.resignal, "video")
    kernel.run(until=start + 3.0)
    assert seen["dropped"] is False
    assert "video" in egress.qdisc.reserved_flows()
    assert r1.rsvp_agent.reserved_rate(egress) == pytest.approx(
        net.nic_of("dst").rsvp_agent.reservations["video"].flowspec.rate_bps)


# ----------------------------------------------------------------------
# Lifecycle reporting
# ----------------------------------------------------------------------
def test_reporter_sees_windowed_fault_edges():
    kernel = Kernel()
    net, _ = rig(kernel)
    reporter = FaultReporterSC(kernel, "faults")
    FaultInjector(kernel, net, reporter=reporter).install(plan_of(
        FaultEvent("link_flap", link=["r1", "dst"], at=1.0, duration=2.0),
        FaultEvent("link_degrade", link=["src", "r1"], at=2.0, duration=2.0,
                   factor=0.5)))

    seen = {}
    kernel.schedule(2.5, lambda: seen.setdefault(
        "overlap", (reporter.value, reporter.active_faults)))
    kernel.run(until=5.0)
    assert seen["overlap"] == (
        2, ("link_flap:r1-dst", "link_degrade:src-r1"))
    assert reporter.value == 0
    assert reporter.faults_seen == 2


def test_injected_log_records_every_event():
    kernel = Kernel()
    net, _ = rig(kernel)
    injector = FaultInjector(kernel, net)
    injector.install(plan_of(
        FaultEvent("resv_loss", flow="video", at=3.0),
        FaultEvent("link_flap", link=["r1", "dst"], at=1.0, duration=2.0)))
    assert injector.injected == [("link_flap:r1-dst", 1.0, 3.0),
                                 ("resv_loss:video", 3.0, 3.0)]


# ----------------------------------------------------------------------
# Index targets, on the fig 9 star the capacity scenario builds
# ----------------------------------------------------------------------
def _fig9(fault, tracer=None):
    (_, arm), *_ = FIGURES["fig9_capacity"].arms
    return scenario_function("capacity")(
        **arm, streams=1, duration=1.0, fault_plan=[fault], tracer=tracer)


def _choices(fault):
    """The injector's sorted target list, as its error message shows it."""
    with pytest.raises(FaultPlanError) as info:
        _fig9(fault)
    return str(info.value).split("choose from: ", 1)[1].split(", ")


def _resolved(fault):
    """The target the fault's trace records name."""
    sink = RingBufferSink(capacity=64)
    _fig9(fault, Tracer(sinks=[sink], layers=["fault"]))
    (begin, end) = sink.records
    assert begin.fields == end.fields
    return begin.fields["link" if "link" in fault else "node"]


def test_an_index_link_is_that_position_of_the_sorted_links():
    window = {"kind": "link_flap", "at": 0.5, "duration": 0.2}
    links = _choices({**window, "link": ["no", "such"]})
    assert len(links) >= 3
    for index in range(len(links) + 2):
        assert _resolved({**window, "link": index}) == \
            links[index % len(links)]


def test_an_index_node_is_that_position_of_the_sorted_nodes():
    window = {"kind": "node_crash", "at": 0.5, "duration": 0.2}
    nodes = _choices({**window, "node": "nowhere"})
    assert "router" in nodes
    for index in range(len(nodes) + 2):
        assert _resolved({**window, "node": index}) == \
            nodes[index % len(nodes)]


def test_an_installed_plan_names_its_resolved_targets():
    kernel = Kernel()
    net, _ = rig(kernel)
    injector = FaultInjector(kernel, net)
    installed = injector.install(plan_of(
        FaultEvent("link_flap", link=1, at=1.0, duration=1.0),
        FaultEvent("node_crash", node=0, at=2.0, duration=1.0)))
    assert [event.label() for event in installed] == [
        "link_flap:src-r1", "node_crash:dst"]
    assert [label for label, _, _ in injector.injected] == [
        "link_flap:src-r1", "node_crash:dst"]
