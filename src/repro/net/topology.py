"""Network construction and routing.

The :class:`Network` builder wires hosts (via their NICs) and routers
into an arbitrary topology of full-duplex links, then installs the
converged link-state routes (:mod:`repro.net.routing`'s SPF) for every
host destination — the simulated analogue of the testbed's statically
configured LAN.

Queue disciplines are chosen *per link direction* at wiring time, which
is how experiments flip a topology between best-effort, DiffServ, and
IntServ behaviour without touching any other code.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.sim.kernel import Kernel
from repro.oskernel.host import Host
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.queues import QueueDiscipline
from repro.net.router import Router

#: Anything that terminates a link.
Device = Union[Nic, Router]
#: What callers may pass to identify a link endpoint.
Endpoint = Union[Host, Nic, Router, str]


class Network:
    """Builder and registry for one simulated network.

    Example
    -------
    >>> from repro.sim import Kernel
    >>> from repro.oskernel import Host
    >>> kernel = Kernel()
    >>> net = Network(kernel)
    >>> a = Host(kernel, "a"); b = Host(kernel, "b")
    >>> net.attach_host(a); net.attach_host(b)  # doctest: +ELLIPSIS
    <Nic a.eth0>
    <Nic b.eth0>
    >>> r = net.add_router("r1")
    >>> _ = net.link(a, r); _ = net.link(r, b)
    >>> net.compute_routes()
    """

    def __init__(
        self,
        kernel: Kernel,
        default_bandwidth_bps: float = 10e6,
        default_delay: float = 50e-6,
    ) -> None:
        self.kernel = kernel
        self.default_bandwidth_bps = float(default_bandwidth_bps)
        self.default_delay = float(default_delay)
        self._devices: Dict[str, Device] = {}
        self._hosts: Dict[str, Host] = {}
        self._links: List[Link] = []
        # adjacency: device name -> [(neighbor name, local interface)]
        self._adjacency: Dict[str, List[Tuple[str, Interface]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def attach_host(self, host: Host) -> Nic:
        """Register ``host`` and give it a NIC."""
        if host.name in self._devices:
            raise ValueError(f"duplicate device name {host.name!r}")
        nic = Nic(self.kernel, host)
        self._devices[host.name] = nic
        self._hosts[host.name] = host
        self._adjacency[host.name] = []
        return nic

    def add_router(self, name: str) -> Router:
        if name in self._devices:
            raise ValueError(f"duplicate device name {name!r}")
        router = Router(self.kernel, name)
        self._devices[name] = router
        self._adjacency[name] = []
        return router

    def link(
        self,
        a: Endpoint,
        b: Endpoint,
        bandwidth_bps: Optional[float] = None,
        delay: Optional[float] = None,
        qdisc_a: Optional[QueueDiscipline] = None,
        qdisc_b: Optional[QueueDiscipline] = None,
    ) -> Link:
        """Wire a full-duplex link between two registered endpoints.

        ``qdisc_a`` shapes traffic *from a toward b*; ``qdisc_b`` the
        reverse direction.
        """
        dev_a = self._resolve(a)
        dev_b = self._resolve(b)
        iface_a = Interface(
            self.kernel, dev_a, f"{dev_a.name}->{dev_b.name}", qdisc=qdisc_a
        )
        iface_b = Interface(
            self.kernel, dev_b, f"{dev_b.name}->{dev_a.name}", qdisc=qdisc_b
        )
        dev_a.add_interface(iface_a)
        dev_b.add_interface(iface_b)
        link = Link(
            self.kernel,
            iface_a,
            iface_b,
            bandwidth_bps=bandwidth_bps or self.default_bandwidth_bps,
            delay=self.default_delay if delay is None else delay,
        )
        self._links.append(link)
        self._adjacency[dev_a.name].append((dev_b.name, iface_a))
        self._adjacency[dev_b.name].append((dev_a.name, iface_b))
        return link

    def compute_routes(self) -> None:
        """(Re)install every device's table: the converged SPF routes.

        Each router gets the table
        :class:`~repro.net.routing.LinkStateRouting` installs on a
        converged network.  Each host reaches a destination host over a
        direct link, else through the attached router with the least
        SPF cost to it (ties by router name); a host never carries
        transit.  Links that are down carry no routes, and every table
        is rebuilt whole: a destination that became unreachable loses
        its entry (and its packets are counted unroutable) rather than
        keep a stale egress into a dead link.
        """
        from repro.net.routing import (  # local import: cycle
            router_lsa, spf_routes, spf_search, two_way_adjacency)

        routers = self.routers
        graph = two_way_adjacency(
            {router.name: router_lsa(self, router.name, 1)
             for router in routers})
        tables = {}
        for router in routers:
            tables[router.name] = table = spf_search(graph, router.name)
            router.routes = spf_routes(self, router.name, table)
        for name in self._hosts:
            best: Dict[str, Tuple[Tuple[float, str], Interface]] = {}
            for peer, iface in self._adjacency[name]:
                if iface.link is None or not iface.link.up:
                    continue
                if peer in self._hosts:
                    offers = [(peer, 0.0)]
                else:
                    offers = [(dst, cost)
                              for dst, (cost, _) in tables[peer].items()
                              if dst in self._hosts]
                for dst, cost in offers:
                    key = (cost + 1.0, peer)
                    if dst != name and (dst not in best or key < best[dst][0]):
                        best[dst] = (key, iface)
            self._devices[name].routes = {dst: best[dst][1]
                                          for dst in sorted(best)}

    def enable_intserv(
        self,
        utilization_bound: float = 0.9,
    ) -> None:
        """Attach RSVP agents to every router and host NIC.

        Reservations only actually take hold on interfaces whose qdisc
        is a :class:`~repro.net.queues.GuaranteedRateQueue`; signaling
        still traverses everything else.  Installed state is hard: no
        timers refresh or expire it (see :mod:`repro.net.intserv`).
        """
        from repro.net.intserv import RsvpAgent  # local import: cycle

        for device in self._devices.values():
            if getattr(device, "rsvp_agent", None) is None:
                RsvpAgent(self.kernel, device,
                          utilization_bound=utilization_bound)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _resolve(self, endpoint: Endpoint) -> Device:
        if isinstance(endpoint, Host):
            return self._devices[endpoint.name]
        if isinstance(endpoint, (Nic, Router)):
            return endpoint
        return self._devices[endpoint]

    def device(self, name: str) -> Device:
        return self._devices[name]

    def host(self, name: str) -> Host:
        return self._hosts[name]

    def nic_of(self, host: Union[Host, str]) -> Nic:
        name = host.name if isinstance(host, Host) else host
        device = self._devices[name]
        if not isinstance(device, Nic):
            raise KeyError(f"{name!r} is not a host")
        return device

    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    @property
    def routers(self) -> List[Router]:
        return [d for d in self._devices.values() if isinstance(d, Router)]

    @property
    def links(self) -> List[Link]:
        return list(self._links)

    def link_between(self, a: Endpoint, b: Endpoint) -> Link:
        """The link directly joining two endpoints (KeyError if none)."""
        name_a = self._resolve(a).name
        name_b = self._resolve(b).name
        wanted = {name_a, name_b}
        for link in self._links:
            if {link.a.owner.name, link.b.owner.name} == wanted:
                return link
        raise KeyError(f"no link between {name_a!r} and {name_b!r}")


# ----------------------------------------------------------------------
# Topology generators
# ----------------------------------------------------------------------
class GeneratedTopology:
    """What a generator built: router names and link endpoint pairs.

    Purely descriptive — the routers and links are already wired into
    the :class:`Network` the generator was given.
    """

    __slots__ = ("kind", "routers", "links", "params")

    def __init__(self, kind: str, routers: List[str],
                 links: List[Tuple[str, str]], params: Dict[str, object]):
        self.kind = kind
        self.routers = list(routers)
        self.links = list(links)
        self.params = dict(params)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<GeneratedTopology {self.kind} routers={len(self.routers)} "
                f"links={len(self.links)}>")


def _wire(net: Network, pairs: List[Tuple[str, str]],
          qdisc_factory: Optional[Callable[[], QueueDiscipline]],
          bandwidth_bps: Optional[float], delay: Optional[float]) -> None:
    for a, b in pairs:
        net.link(a, b, bandwidth_bps=bandwidth_bps, delay=delay,
                 qdisc_a=qdisc_factory() if qdisc_factory else None,
                 qdisc_b=qdisc_factory() if qdisc_factory else None)


def waxman_topology(
    net: Network,
    n: int,
    seed: int = 1,
    alpha: float = 0.55,
    beta: float = 0.6,
    prefix: str = "w",
    qdisc_factory: Optional[Callable[[], QueueDiscipline]] = None,
    bandwidth_bps: Optional[float] = None,
    delay: Optional[float] = None,
) -> GeneratedTopology:
    """Seeded random Waxman graph over ``n`` routers.

    Nodes are dropped uniformly on the unit square; an edge (i, j)
    exists with probability ``alpha * exp(-d(i,j) / (beta * L))`` where
    ``L`` is the graph diameter in Euclidean terms.  A spanning cycle
    ``0-1-...-(n-1)-0`` is always added, so every generated graph is
    2-edge-connected: no single backbone failure can partition it.
    All randomness comes from ``random.Random(seed)`` — same seed,
    same edge list, byte-identical routing tables.
    """
    if n < 3:
        raise ValueError(f"waxman needs n >= 3, got {n}")
    rng = random.Random(seed)
    width = len(str(n - 1))
    names = [f"{prefix}{i:0{width}d}" for i in range(n)]
    positions = [(rng.random(), rng.random()) for _ in range(n)]
    span = max(
        math.dist(positions[i], positions[j])
        for i in range(n) for j in range(i + 1, n)
    )
    pairs: List[Tuple[str, str]] = []
    chosen = set()
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(positions[i], positions[j])
            if rng.random() < alpha * math.exp(-d / (beta * span)):
                pairs.append((names[i], names[j]))
                chosen.add((i, j))
    for i in range(n):
        j = (i + 1) % n
        key = (min(i, j), max(i, j))
        if key not in chosen:
            chosen.add(key)
            pairs.append((names[key[0]], names[key[1]]))
    for name in names:
        net.add_router(name)
    _wire(net, pairs, qdisc_factory, bandwidth_bps, delay)
    return GeneratedTopology(
        "waxman", names, pairs,
        {"n": n, "seed": seed, "alpha": alpha, "beta": beta})


def fat_tree_topology(
    net: Network,
    k: int = 4,
    prefix: str = "ft",
    qdisc_factory: Optional[Callable[[], QueueDiscipline]] = None,
    bandwidth_bps: Optional[float] = None,
    delay: Optional[float] = None,
) -> GeneratedTopology:
    """A k-ary fat-tree: (k/2)^2 cores, k pods of k/2 agg + k/2 edge.

    Edge switch *e* in a pod links to every aggregation switch in that
    pod; aggregation switch *a* links to cores ``a*(k/2) ..
    (a+1)*(k/2)-1`` — the standard rearrangeably non-blocking wiring,
    deterministic by construction (no seed).
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree needs an even k >= 2, got {k}")
    half = k // 2
    cores = [f"{prefix}c{i:02d}" for i in range(half * half)]
    names = list(cores)
    pairs: List[Tuple[str, str]] = []
    for pod in range(k):
        aggs = [f"{prefix}p{pod}a{i}" for i in range(half)]
        edges = [f"{prefix}p{pod}e{i}" for i in range(half)]
        names.extend(aggs)
        names.extend(edges)
        for edge in edges:
            for agg in aggs:
                pairs.append((agg, edge))
        for a, agg in enumerate(aggs):
            for c in range(a * half, (a + 1) * half):
                pairs.append((cores[c], agg))
    for name in names:
        net.add_router(name)
    _wire(net, pairs, qdisc_factory, bandwidth_bps, delay)
    return GeneratedTopology("fat_tree", names, pairs, {"k": k})


def wan_topology(
    net: Network,
    pops: int = 4,
    routers_per_pop: int = 3,
    prefix: str = "pop",
    qdisc_factory: Optional[Callable[[], QueueDiscipline]] = None,
    bandwidth_bps: Optional[float] = None,
    delay: Optional[float] = None,
) -> GeneratedTopology:
    """Multi-PoP WAN: per-PoP router rings joined by a gateway ring.

    Each PoP is a ring of ``routers_per_pop`` routers; router 0 of each
    PoP is its gateway.  Gateways form their own ring, plus antipodal
    chords when there are at least five PoPs, so the backbone survives
    any single inter-PoP link failure.  Deterministic (no seed).
    """
    if pops < 3:
        raise ValueError(f"wan needs >= 3 pops, got {pops}")
    if routers_per_pop < 1:
        raise ValueError("wan needs >= 1 router per pop")
    names: List[str] = []
    pairs: List[Tuple[str, str]] = []
    for pop in range(pops):
        local = [f"{prefix}{pop}r{i}" for i in range(routers_per_pop)]
        names.extend(local)
        if routers_per_pop == 2:
            pairs.append((local[0], local[1]))
        elif routers_per_pop >= 3:
            for i in range(routers_per_pop):
                pairs.append((local[i], local[(i + 1) % routers_per_pop]))
    gateways = [f"{prefix}{pop}r0" for pop in range(pops)]
    for pop in range(pops):
        pairs.append((gateways[pop], gateways[(pop + 1) % pops]))
    if pops >= 5:
        for pop in range(pops // 2):
            pairs.append((gateways[pop], gateways[pop + pops // 2]))
    for name in names:
        net.add_router(name)
    _wire(net, pairs, qdisc_factory, bandwidth_bps, delay)
    return GeneratedTopology(
        "wan", names, pairs,
        {"pops": pops, "routers_per_pop": routers_per_pop})


def generate_topology(
    net: Network,
    kind: str,
    routers: int,
    seed: int = 1,
    qdisc_factory: Optional[Callable[[], QueueDiscipline]] = None,
    bandwidth_bps: Optional[float] = None,
    delay: Optional[float] = None,
) -> GeneratedTopology:
    """Build a named topology family sized to about ``routers`` nodes.

    ``waxman`` hits the count exactly; ``fattree`` rounds up to the
    nearest valid ``5k^2/4``; ``wan`` rounds up to a whole number of
    PoPs.
    """
    if kind == "waxman":
        return waxman_topology(
            net, routers, seed=seed, qdisc_factory=qdisc_factory,
            bandwidth_bps=bandwidth_bps, delay=delay)
    if kind == "fattree":
        k = 2
        while 5 * k * k // 4 < routers:
            k += 2
        return fat_tree_topology(
            net, k, qdisc_factory=qdisc_factory,
            bandwidth_bps=bandwidth_bps, delay=delay)
    if kind == "wan":
        per_pop = 4
        pops = max(3, -(-routers // per_pop))
        return wan_topology(
            net, pops=pops, routers_per_pop=per_pop,
            qdisc_factory=qdisc_factory,
            bandwidth_bps=bandwidth_bps, delay=delay)
    raise ValueError(
        f"unknown topology kind {kind!r}; expected waxman|fattree|wan")
