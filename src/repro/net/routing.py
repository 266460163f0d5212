"""Link-state routing: LSA flooding + Dijkstra SPF over the topology.

:meth:`Network.compute_routes` installs the converged tables of this
protocol once; :class:`LinkStateRouting` keeps them live, reacting to
link failures and repairs — the layer the paper's adaptation story was
missing between the fault injector and the QuO contract: when a
backbone link dies, routers must *learn* about it and heal the
forwarding plane before any amount of reserve or shed-based
adaptation can matter.  Both build each router's LSA with
:func:`router_lsa` and turn its SPF table into routes with
:func:`spf_routes`, so a static table and a converged live one are
the same table.

Protocol model
--------------
Each router originates a link-state advertisement (LSA) describing its
up adjacencies — neighbor routers (with a cost) and directly attached
stub hosts — under a monotonically increasing sequence number.  LSAs
flood hop-by-hop: a router that receives a fresher LSA than the copy
in its link-state database (LSDB) stores it, schedules an SPF
recomputation, and re-floods to every other up neighbor; stale copies
are dropped (the sequence number is the dedup).  Flooding rides the
kernel directly with per-hop latency ``link.delay + LSA_PROC_DELAY``
rather than as data packets: signaling is consumed and re-created at
every hop, which would otherwise register as per-packet-id
conservation leaks in the check suite.

Adjacency changes come from :class:`~repro.net.link.Link` state
listeners — carrier loss and recovery, exactly what a real IGP keys
off — so the fault injector's ``link_flap`` / ``node_crash`` /
``link_down`` events drive re-origination with no extra wiring.

SPF recomputations are coalesced behind ``spf_delay`` (an OSPF-style
hold-down: both endpoints' LSAs from one failure arrive within the
window and trigger a single recomputation).  Route installation is
clear-and-rebuild.  When a recomputation *changes* a router's table,
convergence listeners fire — RSVP make-before-break re-signaling
(:meth:`~repro.net.intserv.RsvpAgent.resignal_all`) hangs off this.

Determinism
-----------
Equal-cost paths break ties by ``(cost, first-hop neighbor name)``:
the Dijkstra heap carries ``(cost, first_hop, node)`` tuples, so of
all shortest paths the one through the lexicographically smallest
first hop settles first.  Tables are therefore identical across runs
and across ``--jobs`` workers.

Cost
----
An SPF run is two pure steps.  :func:`two_way_adjacency` turns an LSDB
into its graph of mutually advertised edges in O(E) and does not
depend on the origin; :func:`spf_search` walks that graph from one
router in O(V log V + E).  Whoever runs SPF from many routers over one
LSDB builds the graph once; the engine keeps the last LSDB's graph,
keyed by content, so the V runs that follow one flood share a build.
"""

from __future__ import annotations

import heapq
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional,
                    Tuple)

from repro.sim.kernel import Kernel
from repro.net.link import Interface, Link
from repro.net.router import Router

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Network

__all__ = [
    "Lsa",
    "LinkStateRouting",
    "ReservationResignaler",
    "predict_path",
    "router_lsa",
    "spf_routes",
    "spf_first_hops",
    "spf_search",
    "two_way_adjacency",
    "seq_newer",
    "SEQ_MODULUS",
]

#: Per-hop LSA processing latency added on top of the link delay.
LSA_PROC_DELAY = 1e-4

#: LSA sequence numbers live in a bounded space (like a 16-bit OSPF-ish
#: counter) so a long-lived network must compare them wraparound-safely.
SEQ_MODULUS = 1 << 16


def seq_newer(a: int, b: int) -> bool:
    """Is seq ``a`` fresher than ``b`` under serial-number arithmetic?

    RFC 1982-style: ``a`` is newer when it sits less than half the
    sequence space ahead of ``b`` (so ``0`` is newer than ``65535``).
    Equal seqs are never "newer".
    """
    if a == b:
        return False
    return ((a - b) % SEQ_MODULUS) < SEQ_MODULUS // 2


class Lsa:
    """One router's link-state advertisement.

    ``neighbors`` are ``(router name, cost)`` pairs, ``stubs`` the
    directly attached host names; both sorted so two LSAs describing
    the same adjacency compare equal field-by-field.
    """

    __slots__ = ("origin", "seq", "neighbors", "stubs")

    def __init__(self, origin: str, seq: int,
                 neighbors: Tuple[Tuple[str, float], ...],
                 stubs: Tuple[str, ...]) -> None:
        self.origin = origin
        self.seq = seq
        self.neighbors = neighbors
        self.stubs = stubs

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Lsa {self.origin} seq={self.seq} "
                f"nbrs={[n for n, _ in self.neighbors]} "
                f"stubs={list(self.stubs)}>")


#: ``two_way_adjacency``'s result: router -> (mutual ``(peer, cost)``
#: pairs sorted, stub hosts), in the LSDB's own order.
Adjacency = Dict[str, Tuple[List[Tuple[str, float]], Tuple[str, ...]]]


def two_way_adjacency(lsdb: Dict[str, Lsa]) -> Adjacency:
    """The LSDB's graph, once, in O(E): what every origin's SPF walks.

    Only two-way adjacencies count (both endpoints must advertise the
    edge, the standard LSDB bidirectionality check), so a half-learned
    failure can never route traffic into a link one side knows is
    dead.  The result does not depend on the origin: callers that run
    SPF from many routers over one LSDB build it once.
    """
    advertised = {name: {peer for peer, _ in lsa.neighbors}
                  for name, lsa in lsdb.items()}
    return {
        name: (sorted([edge for edge in lsa.neighbors
                       if name in advertised.get(edge[0], ())]),
               lsa.stubs)
        for name, lsa in lsdb.items()
    }


def spf_search(adjacency: Adjacency, origin: str
               ) -> Dict[str, Tuple[float, str]]:
    """Dijkstra over an adjacency: destination -> (cost, first-hop name).

    A node is pushed only when the candidate improves on its tentative
    ``(cost, first hop)``, so the heap sees ~V entries rather than ~E;
    an entry that does not improve could never have been the first one
    popped for its node, so the settle order is that of pushing every
    edge.  Stub hosts sit one unit of cost behind their router and
    never carry transit.  Ties break by ``(cost, first-hop name)``.
    """
    best: Dict[str, Tuple[float, str]] = {}
    tentative: Dict[str, Tuple[float, str]] = {}
    heap: List[Tuple[float, str, str]] = [(0.0, "", origin)]
    while heap:
        cost, first_hop, node = heapq.heappop(heap)
        if node in best:
            continue
        best[node] = (cost, first_hop)
        entry = adjacency.get(node)
        if entry is None:
            continue
        for peer, edge_cost in entry[0]:
            if peer in best:
                continue
            candidate = (cost + edge_cost, first_hop or peer)
            incumbent = tentative.get(peer)
            if incumbent is None or candidate < incumbent:
                tentative[peer] = candidate
                heapq.heappush(heap, candidate + (peer,))
    table: Dict[str, Tuple[float, str]] = {}
    for name, (_, stubs) in adjacency.items():
        reached = best.get(name)
        if reached is None:
            continue
        router_cost, router_fh = reached
        for host in stubs:
            candidate = (router_cost + 1.0, router_fh or host)
            incumbent = table.get(host)
            if incumbent is None or candidate < incumbent:
                table[host] = candidate
    for name, reached in best.items():
        if name != origin:
            table[name] = reached
    return table


def spf_first_hops(lsdb: Dict[str, Lsa], origin: str
                   ) -> Dict[str, Tuple[float, str]]:
    """One router's SPF over an LSDB: :func:`two_way_adjacency`, then
    :func:`spf_search` from ``origin``."""
    return spf_search(two_way_adjacency(lsdb), origin)


def router_lsa(network: Network, name: str, seq: int,
               down: FrozenSet[Link] = frozenset()) -> Lsa:
    """Router ``name``'s advertisement of its wiring under ``seq``.

    Every up link counts except those in ``down``: a router peer at
    cost 1, a host as a stub.
    """
    neighbors: List[Tuple[str, float]] = []
    stubs: List[str] = []
    for peer, iface in network._adjacency[name]:
        link = iface.link
        if link is None or not link.up or link in down:
            continue
        if isinstance(network.device(peer), Router):
            neighbors.append((peer, 1.0))
        else:
            stubs.append(peer)
    return Lsa(name, seq, tuple(sorted(neighbors)), tuple(sorted(stubs)))


def spf_routes(network: Network, name: str,
               table: Dict[str, Tuple[float, str]]) -> Dict[str, Interface]:
    """Router ``name``'s forwarding table from its SPF ``table``.

    Each host destination, in name order, leaves on the interface
    toward its first hop; router destinations carry no route.  A first
    hop behind a down link gets none either: the LSDB the table came
    from may not have heard of the failure yet.
    """
    devices = network._devices
    egress_to = dict(network._adjacency[name])
    routes: Dict[str, Interface] = {}
    for dst in sorted(table):
        if isinstance(devices.get(dst), Router):
            continue
        egress = egress_to.get(table[dst][1])
        if egress is not None and egress.link is not None \
                and egress.link.up:
            routes[dst] = egress
    return routes


class _Node:
    """Per-router protocol state."""

    __slots__ = ("router", "lsdb", "seq", "spf_pending", "installed_at")

    def __init__(self, router: Router) -> None:
        self.router = router
        self.lsdb: Dict[str, Lsa] = {}
        self.seq = 0
        self.spf_pending = False
        #: origin -> kernel time its LSA was (re)installed, for max-age
        #: expiry.  Only populated when aging is enabled.
        self.installed_at: Dict[str, float] = {}


class LinkStateRouting:
    """The routing engine: one instance drives every router in a net.

    ``start()`` seeds every router with the already-converged LSDB and
    installs the initial tables synchronously (bringing a cold network
    through a full bootstrap flood would add nothing but events); from
    then on link state changes re-originate, flood, and re-converge
    through simulated time.
    """

    def __init__(self, kernel: Kernel, network: Network,
                 spf_delay: float = 0.05,
                 max_age: Optional[float] = None,
                 refresh_interval: Optional[float] = None) -> None:
        self.kernel = kernel
        self.network = network
        self.spf_delay = float(spf_delay)
        #: Opt-in LSA aging: a foreign LSA not refreshed for this long
        #: is withdrawn from the LSDB (so a long-dead router's
        #: adjacencies cannot pin routes forever).  ``None`` (the
        #: default) disables both aging and refresh — existing
        #: experiments are event-for-event unchanged.
        self.max_age = None if max_age is None else float(max_age)
        if refresh_interval is None and self.max_age is not None:
            refresh_interval = self.max_age / 3.0
        self.refresh_interval = (None if refresh_interval is None
                                 else float(refresh_interval))
        if (self.max_age is not None
                and self.refresh_interval >= self.max_age):
            raise ValueError("refresh_interval must be < max_age")
        self.nodes: Dict[str, _Node] = {}
        self._listeners: List[Callable[[Router], None]] = []
        self._started = False
        self._refresh_event = None
        self._age_event = None
        #: The last LSDB an SPF ran over, by content, and its adjacency.
        #: LSAs are shared by reference across routers and never
        #: mutated, so the set of LSA objects *is* the LSDB's content;
        #: holding the set keeps them alive, so an id cannot recycle.
        self._adjacency_memo: Tuple[FrozenSet[Lsa], Adjacency] = (
            frozenset(), {})
        #: Observability counters.
        self.spf_runs = 0
        self.lsas_originated = 0
        self.lsas_flooded = 0
        self.lsas_refreshed = 0
        self.lsas_expired = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Subscribe to link state and install converged tables."""
        if self._started:
            return
        self._started = True
        for router in sorted(self.network.routers, key=lambda r: r.name):
            self.nodes[router.name] = _Node(router)
        for link in self.network.links:
            link.add_listener(self._on_link_state)
        seed: Dict[str, Lsa] = {}
        for name, node in sorted(self.nodes.items()):
            node.seq = 1
            seed[name] = router_lsa(self.network, name, node.seq)
        for name, node in sorted(self.nodes.items()):
            node.lsdb = dict(seed)
            if self.max_age is not None:
                now = self.kernel.now
                node.installed_at = {origin: now for origin in seed}
            self._run_spf(node, notify=False)
        if self.max_age is not None:
            self._refresh_event = self.kernel.schedule(
                self.refresh_interval, self._refresh_tick)
            self._age_event = self.kernel.schedule(
                self.max_age / 4.0, self._age_tick)

    def stop(self) -> None:
        """Cancel the aging/refresh timers (bounded-run teardown)."""
        if self._refresh_event is not None:
            self._refresh_event.cancel()
            self._refresh_event = None
        if self._age_event is not None:
            self._age_event.cancel()
            self._age_event = None

    def add_convergence_listener(
            self, callback: Callable[[Router], None]) -> None:
        """``callback(router)`` fires when an SPF run changed a table."""
        self._listeners.append(callback)

    # ------------------------------------------------------------------
    # LSA origination and flooding
    # ------------------------------------------------------------------
    def _on_link_state(self, link: Link, up: bool) -> None:
        for iface in (link.a, link.b):
            if iface.owner.name in self.nodes:
                self._originate(iface.owner.name)

    def _originate(self, name: str) -> None:
        node = self.nodes[name]
        node.seq = (node.seq + 1) % SEQ_MODULUS
        lsa = router_lsa(self.network, name, node.seq)
        self.lsas_originated += 1
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("net", "lsa.originate",
                           fields={"router": name, "seq": lsa.seq,
                                   "neighbors": len(lsa.neighbors)})
        self._accept_lsa(node, lsa, learned_from=None)

    def _accept_lsa(self, node: _Node, lsa: Lsa,
                learned_from: Optional[str]) -> None:
        current = node.lsdb.get(lsa.origin)
        if current is not None and not seq_newer(lsa.seq, current.seq):
            return
        node.lsdb[lsa.origin] = lsa
        if self.max_age is not None:
            node.installed_at[lsa.origin] = self.kernel.now
        self._schedule_spf(node)
        # Re-flood to every up router neighbor except the one the LSA
        # came from (split horizon).
        for peer, iface in sorted(self.network._adjacency[node.router.name],
                                  key=lambda entry: entry[0]):
            if peer == learned_from or peer not in self.nodes:
                continue
            link = iface.link
            if link is None or not link.up:
                continue
            self.lsas_flooded += 1
            self.kernel.schedule(
                link.delay + LSA_PROC_DELAY, self._deliver,
                peer, lsa, node.router.name)

    def _deliver(self, to_name: str, lsa: Lsa, from_name: str) -> None:
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("net", "lsa.flood",
                           fields={"origin": lsa.origin, "seq": lsa.seq,
                                   "frm": from_name, "to": to_name})
        self._accept_lsa(self.nodes[to_name], lsa, learned_from=from_name)

    # ------------------------------------------------------------------
    # Aging / refresh (opt-in via max_age)
    # ------------------------------------------------------------------
    def _refresh_tick(self) -> None:
        """Every live router re-originates, resetting its age everywhere."""
        for name in sorted(self.nodes):
            self.lsas_refreshed += 1
            self._originate(name)
        self._refresh_event = self.kernel.schedule(
            self.refresh_interval, self._refresh_tick)

    def _age_tick(self) -> None:
        """Withdraw foreign LSAs that went a full max-age unrefreshed."""
        now = self.kernel.now
        horizon = self.max_age * (1.0 + 1e-9)
        for name, node in sorted(self.nodes.items()):
            expired = [origin for origin, at in node.installed_at.items()
                       if origin != name and now - at > horizon]
            for origin in expired:
                node.lsdb.pop(origin, None)
                node.installed_at.pop(origin, None)
                self.lsas_expired += 1
                tracer = self.kernel.tracer
                if tracer is not None:
                    tracer.instant("net", "lsa.expire",
                                   fields={"router": name, "origin": origin})
            if expired:
                self._schedule_spf(node)
        self._age_event = self.kernel.schedule(
            self.max_age / 4.0, self._age_tick)

    # ------------------------------------------------------------------
    # SPF
    # ------------------------------------------------------------------
    def _schedule_spf(self, node: _Node) -> None:
        if node.spf_pending:
            return
        node.spf_pending = True
        self.kernel.schedule(self.spf_delay, self._spf_timer, node)

    def _spf_timer(self, node: _Node) -> None:
        node.spf_pending = False
        self._run_spf(node, notify=True)

    def _adjacency_of(self, lsdb: Dict[str, Lsa]) -> Adjacency:
        """One build serves every router that runs SPF over this LSDB
        (after a flood settles, that is all of them).  The adjacency
        keeps the dict order of the LSDB it was built from, which
        ``_run_spf`` never sees: it installs in sorted order."""
        content = frozenset(lsdb.values())
        if content != self._adjacency_memo[0]:
            self._adjacency_memo = (content, two_way_adjacency(lsdb))
        return self._adjacency_memo[1]

    def _run_spf(self, node: _Node, notify: bool) -> None:
        self.spf_runs += 1
        name = node.router.name
        routes = spf_routes(self.network, name,
                            spf_search(self._adjacency_of(node.lsdb), name))
        changed = routes != node.router.routes
        node.router.routes = routes
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("net", "spf.install",
                           fields={"router": name, "routes": len(routes),
                                   "changed": changed})
        if changed and notify:
            for callback in self._listeners:
                callback(node.router)


class ReservationResignaler:
    """Make-before-break trigger: SPF convergence -> RSVP re-signal.

    Convergence events from many routers within one failure are
    debounced behind ``delay``; when the timer fires, every given
    sender-side agent re-announces its flows under a bumped epoch
    (:meth:`RsvpAgent.resignal_all`), which re-installs reservations
    along the new egress and tears the old path down behind them.
    """

    def __init__(self, kernel: Kernel, routing: LinkStateRouting,
                 agents, delay: float = 0.25) -> None:
        self.kernel = kernel
        self.agents = list(agents)
        self.delay = float(delay)
        self._pending = None
        #: Completed re-signal rounds (observability).
        self.resignals = 0
        routing.add_convergence_listener(self._on_convergence)

    def _on_convergence(self, router: Router) -> None:
        if self._pending is None:
            self._pending = self.kernel.schedule(self.delay, self._fire)

    def _fire(self) -> None:
        self._pending = None
        self.resignals += 1
        for agent in self.agents:
            agent.resignal_all()


# ----------------------------------------------------------------------
# Path prediction over the same SPF
# ----------------------------------------------------------------------
def predict_path(network: Network, src_host: str, dst_host: str,
                 down: FrozenSet[Link] = frozenset()) -> List[str]:
    """The hop-by-hop forwarding path converged SPF tables produce.

    Walks per-router first hops (each router running its own
    tie-broken Dijkstra), which is exactly how the distributed tables
    compose — a single source-rooted shortest path could disagree at
    equal-cost splits.  Raises ``KeyError`` when ``dst_host`` is
    unreachable under the given set of ``down`` links.
    """
    graph = two_way_adjacency({
        router.name: router_lsa(network, router.name, 1, down)
        for router in network.routers})
    nic = network.nic_of(src_host)
    if not nic.interfaces:
        raise KeyError(f"host {src_host!r} has no attached links")
    path = [src_host]
    current = nic.interfaces[0].peer.owner.name
    seen = set()
    while current != dst_host:
        if current in seen:  # pragma: no cover - defensive
            raise KeyError(f"forwarding loop predicting {src_host}->"
                           f"{dst_host} at {current}")
        seen.add(current)
        path.append(current)
        entry = spf_search(graph, current).get(dst_host)
        if entry is None:
            raise KeyError(
                f"no path {src_host} -> {dst_host} (stuck at {current})")
        current = entry[1]
    path.append(dst_host)
    return path
