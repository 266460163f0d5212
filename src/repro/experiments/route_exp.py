"""Routing-failover experiment: fig 8's gauntlet on generated graphs.

The fig 11 scenario family: a reserved 30 fps video stream crosses a
*generated* topology (50-500 routers: seeded Waxman, fat-tree, or
multi-PoP WAN) and a backbone link on its path is cut permanently.
Four arms cross the two recovery mechanisms:

* ``static``            — one-shot SPF tables, no re-signaling;
* ``static-resignal``   — static tables, RSVP re-signal after the cut
  (the control showing signaling alone cannot route around a failure);
* ``dynamic``           — link-state routing re-converges, but the
  reservation stays on the old path, so the detour is best-effort;
* ``dynamic-resignal``  — SPF convergence triggers make-before-break
  re-signaling, restoring the guaranteed-rate lane on the new path.

Every arm starts from the *same* converged SPF tables
(:meth:`~repro.net.topology.Network.compute_routes`), runs the same QuO
frame-filtering adaptation, and faces the same congested detour: a
12 Mbps CBR cross-traffic source parks on the middle edge of the
predicted post-failure path, so surviving the reroute at full rate
requires the reservation to move too.  What separates the arms is
purely who heals what: the forwarding plane, the reservation, both,
or neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.process import Process
from repro.net.topology import Network, generate_topology
from repro.net.routing import (
    LinkStateRouting,
    ReservationResignaler,
    predict_path,
    router_lsa,
    spf_search,
    two_way_adjacency,
)
from repro.net.traffic import CbrTrafficSource
from repro.core.policies import QosPolicy
from repro.experiments.arm import Arm, StreamResult
from repro.experiments.testbed import Testbed

#: SPF hold-down used by the dynamic arms.
SPF_DELAY = 0.2
#: Debounce between SPF convergence and the re-signal round (and the
#: delay after the cut at which the static-resignal arm re-signals, so
#: both re-signal arms act on the same schedule).
RESIGNAL_DELAY = 0.25
#: Every generated link, the stream's reserved lane, and the cross
#: traffic parked on the detour.
LINK_BPS = 10e6
RESERVE_RATE_BPS = 1.4e6
CROSS_RATE_BPS = 12e6


@dataclass
class RouteArm(Arm):
    """One fig 11 arm: {static, dynamic} x {re-signal on, off}."""

    name: str
    dynamic: bool
    resignal: bool

    def policy(self) -> QosPolicy:
        """Every arm reserves the stream's lane; the arms differ only
        in who heals the path after the cut."""
        return QosPolicy(reservation=QosPolicy.flow(RESERVE_RATE_BPS))


def route_arms() -> List[RouteArm]:
    return [
        RouteArm("static", False, False),
        RouteArm("static-resignal", False, True),
        RouteArm("dynamic", True, False),
        RouteArm("dynamic-resignal", True, True),
    ]


class RouteExperimentResult(StreamResult):
    """Everything fig 11 needs for one arm."""

    def __init__(self, arm: RouteArm, duration: float, fail_at: float,
                 topology: str, router_count: int, link_count: int,
                 primary_path: List[str], backbone: Tuple[str, str],
                 detour_edge: Tuple[str, str]) -> None:
        super().__init__(arm, duration)
        self.fail_at = fail_at
        self.topology = topology
        self.router_count = router_count
        self.link_count = link_count
        #: src -> dst forwarding path before the cut (device names).
        self.primary_path = list(primary_path)
        #: The router-router link the fault removes.
        self.backbone = tuple(backbone)
        #: The congested edge of the predicted post-failure path.
        self.detour_edge = tuple(detour_edge)
        self.spf_runs = 0
        self.lsas_flooded = 0
        self.resignal_rounds = 0
        self.unroutable_drops = 0

    # -- figure metrics -------------------------------------------------
    def pre_fail_fps(self, warmup: float = 2.0) -> float:
        """Delivered frame rate between warm-up and the cut."""
        return self.delivered_fps(warmup, self.fail_at)

    def recovery_rate_fps(self, settle: float = 5.0) -> float:
        """Delivered frame rate once the post-cut transient settles."""
        return self.delivered_fps(self.fail_at + settle, self.duration)


# ----------------------------------------------------------------------
# Deterministic site selection on the generated graph
# ----------------------------------------------------------------------
def _farthest_router_pair(net: Network) -> Tuple[str, str]:
    """The lexicographically-least router pair at maximal hop distance.

    Hop counts are SPF costs over the converged link-state graph, whose
    router-router edges all cost 1; the minimum over ``(-hops, a, b)``
    does not depend on the order the search settles routers in.
    """
    lsdb = {router.name: router_lsa(net, router.name, 1)
            for router in net.routers}
    graph = two_way_adjacency(lsdb)
    best: Optional[Tuple[float, str, str]] = None
    for router in sorted(lsdb):
        for name, (hops, _) in spf_search(graph, router).items():
            if name not in lsdb:  # a stub host
                continue
            a, b = sorted((router, name))
            candidate = (-hops, a, b)
            if best is None or candidate < best:
                best = candidate
    if best is None or best[0] == 0:  # pragma: no cover - degenerate
        raise RuntimeError("generated topology has no router pairs")
    return best[1], best[2]


def _router_edges(path: List[str],
                  routers: set) -> List[Tuple[str, str]]:
    return [
        (path[i], path[i + 1])
        for i in range(len(path) - 1)
        if path[i] in routers and path[i + 1] in routers
    ]


def _middle(edges: List[Tuple[str, str]]) -> Tuple[str, str]:
    return edges[(len(edges) - 1) // 2]


# ----------------------------------------------------------------------
def run_route_experiment(
    arm: RouteArm,
    routers: int = 56,
    topology: str = "waxman",
    duration: float = 40.0,
    fail_at: float = 10.0,
    seed: int = 1,
    fault_plan=None,
    checks=None,
    tracer=None,
) -> RouteExperimentResult:
    """Run one fig 11 arm on a generated ``routers``-node topology.

    The video endpoints attach at a hop-distance-maximized router
    pair; the cut removes the middle router-router link of the
    stream's forwarding path, and the cross traffic congests the
    middle new edge of the *predicted* post-failure path — so the
    reroute always lands on contested ground.  ``fault_plan`` replaces
    the cut (``[]``: the backbone survives).
    """
    bed = Testbed(seed, checks, tracer)
    kernel, q = bed.kernel, bed.queue

    # --- generated topology -------------------------------------------
    net = bed.build_network(LINK_BPS)
    generated = generate_topology(net, topology, routers, seed=seed,
                                  qdisc_factory=q)
    src_router, dst_router = _farthest_router_pair(net)

    for name, attach in (("src", src_router), ("dst", dst_router)):
        bed.host(name)
        net.link(name, attach, qdisc_a=q(), qdisc_b=q())

    # --- failure site and contested detour ----------------------------
    router_names = {router.name for router in net.routers}
    primary = predict_path(net, "src", "dst")
    primary_edges = _router_edges(primary, router_names)
    if not primary_edges:
        raise RuntimeError(
            f"src/dst pair {src_router}-{dst_router} has no backbone hop")
    backbone = _middle(primary_edges)
    backbone_link = net.link_between(*backbone)
    detour = predict_path(net, "src", "dst",
                          down=frozenset((backbone_link,)))
    primary_both = {frozenset(edge) for edge in primary_edges}
    new_edges = [edge for edge in _router_edges(detour, router_names)
                 if frozenset(edge) not in primary_both]
    if not new_edges:  # pragma: no cover - 2-edge-connected generators
        raise RuntimeError("post-failure path introduces no new edge")
    detour_edge = _middle(new_edges)

    for name, attach in (("xsrc", detour_edge[0]), ("xdst", detour_edge[1])):
        bed.host(name)
        net.link(name, attach, qdisc_a=q(), qdisc_b=q())

    # --- routing plane -------------------------------------------------
    # Every arm starts from identical converged SPF tables; the dynamic
    # arms additionally run the live protocol on top of them.
    net.compute_routes()
    routing: Optional[LinkStateRouting] = None
    if arm.dynamic:
        routing = LinkStateRouting(kernel, net, spf_delay=SPF_DELAY)
        routing.start()

    net.enable_intserv()
    sender_agent = net.nic_of("src").rsvp_agent

    resignaler: Optional[ReservationResignaler] = None
    if arm.resignal:
        if routing is not None:
            resignaler = ReservationResignaler(
                kernel, routing, [sender_agent], delay=RESIGNAL_DELAY)
        else:
            # Static tables produce no convergence events; re-signal on
            # the same schedule the dynamic arm would (cut + SPF
            # hold-down + debounce) to isolate the routing axis.
            kernel.schedule(fail_at + SPF_DELAY + RESIGNAL_DELAY,
                            sender_agent.resignal_all)

    result = RouteExperimentResult(
        arm, duration, fail_at, generated.kind,
        len(generated.routers), len(generated.links),
        primary, backbone, detour_edge)

    # --- ORBs + A/V stream over the reserved lane ---------------------
    bed.av_endpoints(("src", "dst"))
    bed.watch(routing=routing)

    sender = receiver = None

    def driver():
        nonlocal sender, receiver
        sender, receiver = yield from bed.open_stream(
            "uav-video", arm.policy(), bed.rng.stream("video"),
            degrade_threshold=0.05)
        sender.start()

    Process(kernel, driver(), name="route-experiment-driver")

    # --- contested detour + the cut -----------------------------------
    cross = CbrTrafficSource(
        kernel, net.nic_of("xsrc"), "xdst", rate_bps=CROSS_RATE_BPS)
    kernel.schedule(0.5, cross.start)
    bed.inject(fault_plan, [
        {"kind": "link_down", "link": list(backbone), "at": fail_at},
    ])

    events = bed.run(until=duration)
    result.capture(sender, receiver, events)
    cross.stop()
    if routing is not None:
        result.spf_runs = routing.spf_runs
        result.lsas_flooded = routing.lsas_flooded
    if resignaler is not None:
        result.resignal_rounds = resignaler.resignals
    result.unroutable_drops = sum(
        router.unroutable for router in net.routers)
    return result
