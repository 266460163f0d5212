"""Link-state routing: flooding, SPF, reroute, make-before-break."""

import pytest

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import (
    DatagramSocket,
    FlowSpec,
    GuaranteedRateQueue,
    LinkStateRouting,
    Lsa,
    Network,
    ReservationResignaler,
    generate_topology,
    predict_path,
    spf_first_hops,
)
from repro.net import routing as routing_module
from repro.net import topology as topology_module
from repro.net.routing import two_way_adjacency
from repro.check import (
    InvariantViolation,
    RoutingChecker,
    World,
    default_suite,
)
from repro.obs.trace import TraceRecord
from tests.net.test_topology import forwarding_path


def grq(kernel):
    return GuaranteedRateQueue(kernel, band_capacity=100)


def diamond(kernel, reserved=False):
    """src - r1 - {r2, r3} - r4 - dst: two equal-cost transit paths."""
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("src", "dst"):
        net.attach_host(Host(kernel, name))
    for name in ("r1", "r2", "r3", "r4"):
        net.add_router(name)
    q = (lambda: grq(kernel)) if reserved else (lambda: None)
    for a, b in (("src", "r1"), ("r1", "r2"), ("r1", "r3"),
                 ("r2", "r4"), ("r3", "r4"), ("r4", "dst")):
        net.link(a, b, qdisc_a=q(), qdisc_b=q())
    return net


def lsa(origin, seq, neighbors, stubs=()):
    return Lsa(origin, seq, tuple(sorted(neighbors)), tuple(sorted(stubs)))


# ----------------------------------------------------------------------
# SPF determinism
# ----------------------------------------------------------------------
def test_spf_tie_breaks_by_cost_then_first_hop_name():
    lsdb = {
        "a": lsa("a", 1, [("b", 1.0), ("c", 1.0)]),
        "b": lsa("b", 1, [("a", 1.0), ("d", 1.0)]),
        "c": lsa("c", 1, [("a", 1.0), ("d", 1.0)]),
        "d": lsa("d", 1, [("b", 1.0), ("c", 1.0)], stubs=["h"]),
    }
    table = spf_first_hops(lsdb, "a")
    # Two equal-cost paths to d (via b, via c): the lexicographically
    # smaller first hop wins, deterministically.
    assert table["d"] == (2.0, "b")
    # The stub host sits one unit behind its router, same first hop.
    assert table["h"] == (3.0, "b")


def test_spf_lower_cost_beats_name_order():
    lsdb = {
        "a": lsa("a", 1, [("b", 1.0), ("z", 1.0)]),
        "b": lsa("b", 1, [("a", 1.0), ("d", 9.0)]),
        "z": lsa("z", 1, [("a", 1.0), ("d", 1.0)]),
        "d": lsa("d", 1, [("b", 9.0), ("z", 1.0)]),
    }
    assert spf_first_hops(lsdb, "a")["d"] == (2.0, "z")


def test_spf_ignores_one_way_adjacencies():
    # b advertises b-d but d does not advertise it back (d has learned
    # the link is dead): the edge must not carry any route.
    lsdb = {
        "a": lsa("a", 1, [("b", 1.0), ("c", 1.0)]),
        "b": lsa("b", 2, [("a", 1.0), ("d", 1.0)]),
        "c": lsa("c", 1, [("a", 1.0), ("d", 1.0)]),
        "d": lsa("d", 3, [("c", 1.0)]),
    }
    assert spf_first_hops(lsdb, "a")["d"] == (2.0, "c")


def generated(kind, routers):
    """A generated graph with one host hanging off every router."""
    def build(kernel):
        net = Network(kernel, default_bandwidth_bps=10e6)
        names = generate_topology(net, kind, routers, seed=1).routers
        for name in names:
            net.attach_host(Host(kernel, f"h-{name}"))
            net.link(f"h-{name}", name)
        return net
    return build


@pytest.mark.parametrize("build", [
    diamond,
    generated("waxman", 56),
    generated("fattree", 20),
    generated("wan", 16),
], ids=["diamond", "waxman56", "fattree", "wan"])
def test_start_matches_the_static_snapshot_helper(build):
    kernel = Kernel()
    net = build(kernel)
    net.compute_routes()
    static_tables = {r.name: dict(r.routes) for r in net.routers}
    assert all(static_tables.values())
    LinkStateRouting(kernel, net).start()
    live_tables = {r.name: dict(r.routes) for r in net.routers}
    assert live_tables == static_tables


def test_predicted_path_follows_the_installed_first_hops():
    kernel = Kernel()
    net = diamond(kernel)
    net.compute_routes()
    assert predict_path(net, "src", "dst") == [
        "src", "r1", "r2", "r4", "dst"]
    assert forwarding_path(net, "src", "dst") == [
        "src", "r1", "r2", "r4", "dst"]


# ----------------------------------------------------------------------
# Host tables
# ----------------------------------------------------------------------
def hosts_and_routers(kernel, hosts, routers, links):
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in hosts:
        net.attach_host(Host(kernel, name))
    for name in routers:
        net.add_router(name)
    for a, b in links:
        net.link(a, b)
    net.compute_routes()
    return net


def test_multihomed_host_at_equal_cost_leaves_by_the_lower_router_name():
    kernel = Kernel()
    # m's first interface faces rb, but ra reaches d at the same cost.
    net = hosts_and_routers(
        kernel, ["m", "d"], ["ra", "rb", "rc"],
        [("m", "rb"), ("m", "ra"), ("ra", "rc"), ("rb", "rc"), ("rc", "d")])
    nic = net.nic_of("m")
    assert nic.interfaces[0].name == "m->rb"
    assert nic.egress_for("d").name == "m->ra"
    assert forwarding_path(net, "m", "d") == ["m", "ra", "rc", "d"]


def test_a_direct_host_link_beats_the_router_path():
    kernel = Kernel()
    # The table 2 shape, plus a router both hosts also reach.
    net = hosts_and_routers(
        kernel, ["a", "b"], ["r"], [("a", "r"), ("b", "r"), ("a", "b")])
    assert net.nic_of("a").egress_for("b").name == "a->b"
    assert net.nic_of("b").egress_for("a").name == "b->a"
    assert net.device("r").egress_for("b").name == "r->b"


def test_a_failed_link_clears_host_and_router_entries():
    kernel = Kernel()
    net = hosts_and_routers(
        kernel, ["a", "b"], ["r"], [("a", "r"), ("r", "b")])
    assert net.nic_of("a").egress_for("b").name == "a->r"
    net.link_between("a", "r").fail()
    net.compute_routes()
    assert net.nic_of("a").routes == {}
    assert net.nic_of("b").routes == {}
    assert net.device("r").routes == {"b": net.device("r").interfaces["r->b"]}


# ----------------------------------------------------------------------
# LSA origination, flooding, dedup
# ----------------------------------------------------------------------
def test_link_failure_floods_and_reconverges_every_lsdb():
    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05)
    routing.start()
    assert net.device("r1").egress_for("dst").link is \
        net.link_between("r1", "r2")

    kernel.schedule(1.0, net.link_between("r1", "r2").fail)
    kernel.run(until=2.0)

    # Both endpoints re-originated; the flood reached every router.
    seqs = {name: {o: l.seq for o, l in node.lsdb.items()}
            for name, node in routing.nodes.items()}
    reference = seqs["r4"]
    assert all(s == reference for s in seqs.values())
    assert reference["r1"] == 2 and reference["r2"] == 2
    assert routing.lsas_flooded > 0
    # Every router rerouted dst traffic through the surviving path.
    assert net.device("r1").egress_for("dst").link is \
        net.link_between("r1", "r3")


def test_stale_lsa_is_dropped_without_reflooding():
    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05)
    routing.start()
    kernel.schedule(1.0, net.link_between("r1", "r2").fail)
    kernel.run(until=2.0)

    node = routing.nodes["r4"]
    flooded_before = routing.lsas_flooded
    stale = lsa("r1", 1, [("r2", 1.0), ("r3", 1.0)], stubs=["src"])
    routing._deliver("r4", stale, "r2")
    # Sequence-number dedup: the old copy neither replaces the fresher
    # LSDB entry nor triggers another flooding round.
    assert node.lsdb["r1"].seq == 2
    assert routing.lsas_flooded == flooded_before


def test_flap_restores_the_original_tables():
    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05)
    routing.start()
    before = {r.name: dict(r.routes) for r in net.routers}
    link = net.link_between("r1", "r2")
    kernel.schedule(1.0, link.fail)
    kernel.schedule(2.0, link.restore)
    kernel.run(until=3.0)
    assert {r.name: dict(r.routes) for r in net.routers} == before


# ----------------------------------------------------------------------
# End-to-end reroute
# ----------------------------------------------------------------------
def test_reroute_restores_datagram_delivery():
    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05)
    routing.start()
    got = []
    DatagramSocket(kernel, net.nic_of("dst"), port=7,
                   on_receive=lambda payload, pkt: got.append(
                       (payload, kernel.now)))
    sender = DatagramSocket(kernel, net.nic_of("src"))
    for i in range(300):
        kernel.schedule(0.01 * i, sender.send_to, "dst", 7, i, 500)
    kernel.schedule(1.0, net.link_between("r1", "r2").fail)
    kernel.run(until=4.0)

    received = {payload for payload, _ in got}
    # Everything sent before the cut arrived; everything sent after
    # convergence (cut + spf_delay, plus margin) arrived via r3.
    assert all(i in received for i in range(100))
    assert all(i in received for i in range(110, 300))
    assert net.device("r1").egress_for("dst").link is \
        net.link_between("r1", "r3")


def test_smoke_dynamic_resignal_arm_reconverges():
    """CI route-smoke: small Waxman graph, one backbone cut.

    The dynamic+resignal arm must restore the reserved stream to
    full rate after the failure while the static arm stays collapsed.
    """
    from repro.experiments.route_exp import RouteArm, run_route_experiment

    dynamic = run_route_experiment(
        RouteArm("dynamic-resignal", True, True),
        routers=12, duration=20.0, fail_at=5.0)
    assert dynamic.pre_fail_fps() > 28.0
    assert dynamic.spf_runs > 0 and dynamic.lsas_flooded > 0
    assert dynamic.resignal_rounds >= 1
    assert dynamic.recovery_rate_fps() >= 25.0

    static = run_route_experiment(
        RouteArm("static", False, False),
        routers=12, duration=20.0, fail_at=5.0)
    assert static.pre_fail_fps() > 28.0
    assert static.recovery_rate_fps() < 3.0


# ----------------------------------------------------------------------
# Make-before-break re-signaling
# ----------------------------------------------------------------------
def establish(kernel, net, flow_id="video", rate=1.2e6):
    net.nic_of("src").rsvp_agent.announce_path(flow_id, "dst")
    kernel.run(until=kernel.now + 0.1)
    reservation = net.nic_of("dst").rsvp_agent.reserve(
        flow_id, FlowSpec(rate, 20_000))
    kernel.run(until=kernel.now + 0.5)
    assert reservation.is_established
    return reservation


def test_make_before_break_moves_the_reservation():
    kernel = Kernel()
    net = diamond(kernel, reserved=True)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05)
    routing.start()
    net.enable_intserv()
    sender_agent = net.nic_of("src").rsvp_agent
    resignaler = ReservationResignaler(
        kernel, routing, [sender_agent], delay=0.1)

    reservation = establish(kernel, net)
    r1, r2, r3 = (net.device(n) for n in ("r1", "r2", "r3"))
    old_egress = r1.egress_for("dst")
    assert old_egress.link is net.link_between("r1", "r2")
    assert "video" in old_egress.qdisc.reserved_flows()

    kernel.schedule(1.0, net.link_between("r1", "r2").fail)
    kernel.run(until=kernel.now + 4.0)

    # The reservation survived the cut and now guards the new path.
    assert reservation.is_established
    assert resignaler.resignals == 1
    new_egress = r1.egress_for("dst")
    assert new_egress.link is net.link_between("r1", "r3")
    assert "video" in new_egress.qdisc.reserved_flows()
    assert "video" in r3.egress_for("dst").qdisc.reserved_flows()
    # The dead egress released its rate synchronously at link death,
    # and the old transit hop was torn down behind the new path.
    assert r1.rsvp_agent.reserved_rate(old_egress) == 0.0
    assert "video" not in old_egress.qdisc.reserved_flows()
    assert r2.rsvp_agent.reserved_rate(r2.egress_for("dst")) == 0.0
    # No double booking anywhere on the surviving path.
    for router in (r1, r3):
        agent = router.rsvp_agent
        total = sum(agent.reserved_rate(iface)
                    for iface in router.interfaces.values())
        assert total == pytest.approx(1.2e6)


def test_resignal_on_an_unchanged_path_never_unseats_the_reservation():
    """The late TEAR for a superseded epoch must not remove the live
    installation when old and new paths share an egress."""
    kernel = Kernel()
    net = diamond(kernel, reserved=True)
    net.compute_routes()
    net.enable_intserv()
    reservation = establish(kernel, net)
    sender_agent = net.nic_of("src").rsvp_agent

    sender_agent.resignal("video")
    # Long enough for the RESV_CONF round trip and every TEAR resend.
    kernel.run(until=kernel.now + 3.0)

    assert reservation.is_established
    r1 = net.device("r1")
    egress = r1.egress_for("dst")
    assert "video" in egress.qdisc.reserved_flows()
    assert r1.rsvp_agent.reserved_rate(egress) == pytest.approx(1.2e6)


# ----------------------------------------------------------------------
# RoutingChecker + transient drop conservation (the bugfix sweep)
# ----------------------------------------------------------------------
def rec(kind, **fields):
    return TraceRecord(1.0, "net", kind, fields=fields)


def test_routing_checker_rejects_a_route_onto_a_dead_link():
    kernel = Kernel()
    net = diamond(kernel)
    net.compute_routes()
    checker = RoutingChecker()
    checker.attach(World(kernel, network=net))
    checker.on_event(rec("spf.install", router="r1"))  # healthy: passes

    net.link_between("r1", "r2").fail()
    # Static tables still point dst at the dead egress.
    with pytest.raises(InvariantViolation, match="dead link"):
        checker.on_event(rec("spf.install", router="r1"))


def test_routing_checker_detects_a_forwarding_loop():
    kernel = Kernel()
    net = Network(kernel)
    net.attach_host(Host(kernel, "h"))
    ra, rb = net.add_router("ra"), net.add_router("rb")
    net.link("ra", "rb")
    net.link("rb", "h")
    net.compute_routes()
    # Corrupt: ra and rb each point h's traffic at the other.
    ra.routes["h"] = ra.interfaces["ra->rb"]
    rb.routes["h"] = rb.interfaces["rb->ra"]
    checker = RoutingChecker()
    checker.attach(World(kernel, network=net))
    with pytest.raises(InvariantViolation, match="loop"):
        checker.final_check()


def checked_diamond():
    kernel, net, routing = started_diamond()
    suite = default_suite()
    suite.install(World(kernel, network=net, routing=routing))
    return kernel, net, routing, suite


def test_routing_checker_sees_a_table_the_engine_did_not_install():
    """The LSDB-consistency law: after a cut has converged the suite is
    green, and a router still holding its pre-cut table is drift."""
    kernel, net, routing, suite = checked_diamond()
    r1 = net.device("r1")
    before = dict(r1.routes)
    kernel.schedule(1.0, net.link_between("r1", "r2").fail)
    kernel.run(until=2.0)
    suite.final_check()
    assert r1.routes != before
    r1.routes = before
    with pytest.raises(InvariantViolation, match="drifted"):
        suite.final_check()
    suite.uninstall()


def test_installer_keeps_a_route_off_a_link_the_lsdb_still_advertises():
    """r1 runs SPF over an LSDB that has not heard of r1's own cut: the
    table still picks r2, and only the installer's link check keeps the
    route off the dead link (the checker rejects it at spf.install)."""
    kernel, net, routing, suite = checked_diamond()
    node = routing.nodes["r1"]
    stale = dict(node.lsdb)
    net.link_between("r1", "r2").fail()
    node.lsdb = stale
    assert spf_first_hops(stale, "r1")["dst"] == (3.0, "r2")
    routing._run_spf(node, notify=False)
    r1 = net.device("r1")
    assert r1.routes == {"src": r1.interfaces["r1->src"]}
    suite.uninstall()


def test_transient_window_drops_are_conserved_under_the_checkers():
    """Satellite regression: a packet that becomes unroutable during a
    routing transient must end in an *accounted* drop — the full
    default checker suite (packet conservation included) watches a
    live reroute where the destination's only uplink dies."""
    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05)
    routing.start()
    suite = default_suite()
    suite.install(World(kernel, network=net, routing=routing))

    got = []
    DatagramSocket(kernel, net.nic_of("dst"), port=7,
                   on_receive=lambda payload, pkt: got.append(payload))
    sender = DatagramSocket(kernel, net.nic_of("src"))
    for i in range(200):
        kernel.schedule(0.01 * i, sender.send_to, "dst", 7, i, 500)
    # dst's only uplink dies: after convergence every router loses its
    # route and later packets must die as accounted unroutable drops.
    kernel.schedule(1.0, net.link_between("r4", "dst").fail)
    kernel.run(until=3.0)
    suite.final_check()
    suite.uninstall()

    r1 = net.device("r1")
    assert r1.egress_for("dst") is None
    assert r1.drops_by_reason.get("unroutable", 0) > 0
    assert r1.dropped == r1.unroutable
    # Conservation arithmetic: everything sent is delivered, queued on
    # a dead egress, or dropped with a reason — nothing vanished.
    assert len(got) < 200


# ----------------------------------------------------------------------
# Sequence wraparound and LSA aging (opt-in via max_age)
# ----------------------------------------------------------------------
def test_seq_newer_obeys_serial_number_arithmetic():
    from repro.net import SEQ_MODULUS, seq_newer

    assert seq_newer(2, 1)
    assert not seq_newer(1, 2)
    assert not seq_newer(5, 5)
    # The wrap boundary: 0 is fresher than the top of the space.
    assert seq_newer(0, SEQ_MODULUS - 1)
    assert not seq_newer(SEQ_MODULUS - 1, 0)
    # Half the space ahead is NOT newer (the ambiguity guard).
    half = SEQ_MODULUS // 2
    assert not seq_newer(half, 0)
    assert seq_newer(half - 1, 0)
    # Antisymmetry everywhere but the half-space edge.
    for a, b in ((7, 3), (3, 7), (0, SEQ_MODULUS - 1), (12, 12)):
        assert not (seq_newer(a, b) and seq_newer(b, a))


def test_accept_honors_a_wrapped_sequence():
    """An LSA whose seq wrapped past the modulus must still replace
    the numerically larger incumbent."""
    from repro.net import SEQ_MODULUS

    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05)
    routing.start()
    node = routing.nodes["r1"]
    # Stage a long-lived incumbent near the top of the seq space (a
    # fresh jump from the seeded seq=1 straight to the top would be
    # correctly rejected as wrapped-behind).
    del node.lsdb["r2"]
    top = lsa("r2", SEQ_MODULUS - 1, [("r1", 1.0), ("r4", 1.0)])
    routing._accept_lsa(node, top, learned_from=None)
    assert node.lsdb["r2"].seq == SEQ_MODULUS - 1
    wrapped = lsa("r2", 0, [("r1", 1.0), ("r4", 1.0)])
    routing._accept_lsa(node, wrapped, learned_from=None)
    assert node.lsdb["r2"].seq == 0  # the wrap won
    stale = lsa("r2", SEQ_MODULUS - 5, [("r1", 1.0)])
    routing._accept_lsa(node, stale, learned_from=None)
    assert node.lsdb["r2"].seq == 0  # pre-wrap seq is stale now


def test_originate_wraps_at_the_modulus():
    from repro.net import SEQ_MODULUS

    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05)
    routing.start()
    # Simulate a long-lived network: r1's LSA sits at the top of the
    # seq space in every LSDB, so its next origination wraps to 0.
    routing.nodes["r1"].seq = SEQ_MODULUS - 1
    for node in routing.nodes.values():
        node.lsdb["r1"] = lsa(
            "r1", SEQ_MODULUS - 1,
            [("r2", 1.0), ("r3", 1.0)], stubs=("src",))
    routing._originate("r1")
    assert routing.nodes["r1"].seq == 0
    kernel.run(until=1.0)
    # Every peer accepted the wrapped origination.
    for name in ("r2", "r3", "r4"):
        assert routing.nodes[name].lsdb["r1"].seq == 0


def test_ghost_lsa_expires_after_max_age():
    """An LSA whose originator is gone ages out of every LSDB; the
    live routers' own refresh keeps their LSAs pinned forever."""
    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05, max_age=6.0)
    routing.start()
    # Inject a ghost router's LSA directly into r1 (as if a since-dead
    # router had flooded it); it floods everywhere, then must die of
    # old age because nothing refreshes it.
    ghost = lsa("ghost", 5, [], stubs=("hX",))
    routing._accept_lsa(routing.nodes["r1"], ghost, learned_from=None)
    kernel.run(until=1.0)
    assert all("ghost" in node.lsdb for node in routing.nodes.values())
    kernel.run(until=10.0)
    assert all("ghost" not in node.lsdb for node in routing.nodes.values())
    assert routing.lsas_expired >= len(routing.nodes)
    # The real routers refreshed and never expired.
    assert routing.lsas_refreshed > 0
    for name, node in routing.nodes.items():
        assert set(node.lsdb) == set(routing.nodes)
    routing.stop()


def test_refresh_interval_must_undercut_max_age():
    kernel = Kernel()
    net = diamond(kernel)
    with pytest.raises(ValueError):
        LinkStateRouting(kernel, net, max_age=5.0, refresh_interval=5.0)


def test_aging_disabled_by_default_adds_no_events():
    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05)
    routing.start()
    assert routing.max_age is None
    assert routing._refresh_event is None and routing._age_event is None
    events_before = kernel.events_executed
    kernel.run(until=60.0)
    assert kernel.events_executed == events_before  # fully quiescent
    assert routing.lsas_refreshed == 0
    assert routing.lsas_expired == 0


# ----------------------------------------------------------------------
# The engine's one-entry adjacency memo (keyed by LSDB content)
# ----------------------------------------------------------------------
def fresh_routes(net, node):
    """What ``node`` must install, from a two-argument SPF call."""
    egress_of = dict(net._adjacency[node.router.name])
    table = spf_first_hops(node.lsdb, node.router.name)
    return {dst: egress_of[first_hop]
            for dst, (_, first_hop) in table.items()
            if dst in ("src", "dst") and egress_of[first_hop].link.up}


def count_adjacency_builds(monkeypatch):
    builds = []

    def counting(lsdb):
        builds.append(dict(lsdb))  # as it was then: nodes' LSDBs mutate
        return two_way_adjacency(lsdb)

    monkeypatch.setattr(routing_module, "two_way_adjacency", counting)
    monkeypatch.setattr(topology_module, "two_way_adjacency", counting)
    return builds


def started_diamond(**engine_options):
    kernel = Kernel()
    net = diamond(kernel)
    routing = LinkStateRouting(kernel, net, spf_delay=0.05, **engine_options)
    routing.start()
    return kernel, net, routing


def memo_is_current(routing, node):
    graph = routing._adjacency_of(node.lsdb)
    assert graph == two_way_adjacency(node.lsdb)
    return graph


def test_memo_serves_two_routers_holding_different_lsdbs():
    kernel, net, routing = started_diamond()
    r1, r4 = routing.nodes["r1"], routing.nodes["r4"]
    # r1 alone has learned that r2 lost its link to r4.
    r1.lsdb["r2"] = lsa("r2", 2, [("r1", 1.0)])
    assert two_way_adjacency(r1.lsdb) != two_way_adjacency(r4.lsdb)
    for _ in range(3):
        for node in (r1, r4):
            routing._run_spf(node, notify=False)
            assert node.router.routes == fresh_routes(net, node)
    assert net.device("r1").egress_for("dst").link is \
        net.link_between("r1", "r3")


def test_memo_sees_a_replaced_lsa():
    kernel, net, routing = started_diamond()
    node = routing.nodes["r1"]
    seeded = memo_is_current(routing, node)
    assert "r4" in dict(seeded["r2"][0])
    routing._accept_lsa(node, lsa("r2", 2, [("r1", 1.0)]), learned_from=None)
    replaced = memo_is_current(routing, node)
    assert "r4" not in dict(replaced["r2"][0])
    assert "r2" not in dict(replaced["r4"][0])


def test_memo_sees_a_wrapped_sequence():
    from repro.net import SEQ_MODULUS

    kernel, net, routing = started_diamond()
    node = routing.nodes["r1"]
    del node.lsdb["r2"]
    assert "r2" not in memo_is_current(routing, node)
    routing._accept_lsa(
        node, lsa("r2", SEQ_MODULUS - 1, [("r1", 1.0), ("r4", 1.0)]),
        learned_from=None)
    assert "r4" in dict(memo_is_current(routing, node)["r2"][0])
    # Seq 0 is newer than 65535: the wrapped LSA's adjacency counts.
    routing._accept_lsa(node, lsa("r2", 0, [("r1", 1.0)]), learned_from=None)
    assert "r4" not in dict(memo_is_current(routing, node)["r2"][0])


def test_memo_sees_an_expired_lsa():
    kernel, net, routing = started_diamond(max_age=6.0)
    node = routing.nodes["r1"]
    routing._accept_lsa(node, lsa("ghost", 5, [], stubs=("hX",)),
                        learned_from=None)
    kernel.run(until=1.0)
    assert "ghost" in memo_is_current(routing, node)
    kernel.run(until=10.0)  # _age_tick withdrew it
    assert routing.lsas_expired > 0
    assert "ghost" not in memo_is_current(routing, node)
    routing.stop()


def test_spf_runs_counts_memo_hits_and_misses_alike(monkeypatch):
    builds = count_adjacency_builds(monkeypatch)
    kernel, net, routing = started_diamond()
    # Four routers seeded with one LSDB: four runs, one build.
    assert (routing.spf_runs, len(builds)) == (4, 1)
    node = routing.nodes["r1"]
    routing._run_spf(node, notify=False)  # hit
    assert (routing.spf_runs, len(builds)) == (5, 1)
    node.lsdb["r2"] = lsa("r2", 2, [("r1", 1.0)])
    routing._run_spf(node, notify=False)  # miss
    routing._run_spf(node, notify=False)  # hit
    assert (routing.spf_runs, len(builds)) == (7, 2)


def test_smoke_arm_post_cut_flood_shares_the_adjacency(monkeypatch):
    from repro.experiments.route_exp import RouteArm, run_route_experiment

    builds = count_adjacency_builds(monkeypatch)
    dynamic = run_route_experiment(
        RouteArm("dynamic-resignal", True, True),
        routers=12, duration=20.0, fail_at=5.0)
    # 12 runs at start() and 12 after the cut, none skipped.
    assert dynamic.spf_runs == 24
    # Before the cut every LSA is at seq 1: one build each for
    # compute_routes, the two predict_path walks and start().
    post_cut = [lsdb for lsdb in builds
                if any(entry.seq > 1 for entry in lsdb.values())]
    assert len(builds) - len(post_cut) == 4
    assert 1 <= len(post_cut) <= 2
