"""Reserve-based admission control over CPU and link budgets.

The stream farm asks one question per stream before it binds: *if this
stream gets the CPU reserve and RSVP reservation it wants, does any
host exceed its utilization bound or any link its bandwidth budget?*
The :class:`AdmissionController` answers it from its own ledgers — the
same utilization-bound test :class:`~repro.oskernel.reserve.ReserveManager`
applies per host and the same per-interface budget
:class:`~repro.net.intserv.RsvpAgent` enforces per hop — so a stream
the controller admits is guaranteed to succeed when the reserve is
actually requested and the RESV message actually travels the path.

Admission is all-or-nothing and rejection is side-effect free: a
request either commits a grant covering every demanded host and every
directed edge on the route, or it changes nothing.  Grants are never
released (a stream holds its grant for the rest of the run), so the
books are running totals that only grow, and queries are O(1) even
with 10^5 grants outstanding (the fig10 regime).

The route is the one the packets take: :meth:`AdmissionController.path`
searches from the destination and keeps each node's first discoverer,
as :meth:`~repro.net.topology.Network.compute_routes` fills the
routers' forwarding tables, so on a graph with equal-cost paths a grant
books the edges its RSVP PATH actually crosses.

Multi-tenant isolation: :meth:`set_tenant_pool` caps the total
admitted bandwidth per tenant, checked before the per-link budgets, so
one tenant's overload burst cannot consume another tenant's headroom
even when the shared links still have capacity.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Tuple

#: A directed link (upstream device name, downstream device name).
Edge = Tuple[str, str]


class AdmissionDecision:
    """Outcome of one admission request."""

    __slots__ = ("stream_id", "admitted", "reason")

    def __init__(self, stream_id: str, admitted: bool,
                 reason: Optional[str] = None) -> None:
        self.stream_id = stream_id
        self.admitted = bool(admitted)
        self.reason = reason

    def __repr__(self) -> str:  # pragma: no cover
        verdict = "admitted" if self.admitted else f"rejected ({self.reason})"
        return f"AdmissionDecision({self.stream_id!r}, {verdict})"


class _Grant:
    """One admitted stream's footprint on the books."""

    __slots__ = ("stream_id", "cpu", "edges", "tenant", "rate_bps")

    def __init__(self, stream_id: str, cpu: Dict[str, float],
                 edges: Dict[Edge, float], tenant: Optional[str] = None,
                 rate_bps: float = 0.0) -> None:
        self.stream_id = stream_id
        #: host name -> CPU utilization (C/T) held there.
        self.cpu = cpu
        #: directed edge -> reserved rate in bits per second.
        self.edges = edges
        #: Tenant charged for this grant (None = untenanted).
        self.tenant = tenant
        #: End-to-end rate charged against the tenant pool (once per
        #: stream, not per hop).
        self.rate_bps = rate_bps


class AdmissionController:
    """Accept or reject per-stream CPU reserves and bandwidth requests.

    The controller mirrors the topology as named hosts, routers and
    directed edges.  ``cpu_bound`` / ``link_bound`` default to the
    stack's 0.9 utilization bounds; per-host bounds can differ (they
    are taken from each host's :class:`ReserveManager` when built via
    :meth:`from_network`).
    """

    DEFAULT_BOUND = 0.9

    def __init__(self, cpu_bound: float = DEFAULT_BOUND,
                 link_bound: float = DEFAULT_BOUND) -> None:
        if not 0 < cpu_bound <= 1 or not 0 < link_bound <= 1:
            raise ValueError(
                f"bounds must be in (0, 1], got cpu={cpu_bound} "
                f"link={link_bound}"
            )
        self.cpu_bound = float(cpu_bound)
        self.link_bound = float(link_bound)
        self._cpu_bounds: Dict[str, float] = {}
        self._routers: Dict[str, None] = {}
        self._edge_capacity: Dict[Edge, float] = {}
        self._neighbors: Dict[str, List[str]] = {}
        self._grants: Dict[str, _Grant] = {}
        #: Cached books: insertion-order running sums over the grants.
        self._cpu_totals: Dict[str, float] = {}
        self._edge_totals: Dict[Edge, float] = {}
        self._tenant_totals: Dict[str, float] = {}
        #: Tenant name -> admitted-bandwidth pool cap (bits per second).
        self._tenant_pools: Dict[str, float] = {}
        #: Route memo, invalidated on topology changes.
        self._path_memo: Dict[Edge, List[str]] = {}
        #: Totals for observability (requests seen / rejected).
        self.requests_seen = 0
        self.requests_rejected = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_host(self, name: str, cpu_bound: Optional[float] = None) -> None:
        """Register an endpoint host with a CPU utilization bound."""
        self._cpu_bounds[name] = (
            self.cpu_bound if cpu_bound is None else float(cpu_bound)
        )
        self._neighbors.setdefault(name, [])
        self._path_memo.clear()

    def add_router(self, name: str) -> None:
        """Register a transit node (no CPU budget of its own)."""
        self._routers[name] = None
        self._neighbors.setdefault(name, [])
        self._path_memo.clear()

    def add_link(self, a: str, b: str, bandwidth_bps: float) -> None:
        """Register a full-duplex link (both directed edges budgeted)."""
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        for name in (a, b):
            if name not in self._cpu_bounds and name not in self._routers:
                raise KeyError(f"unknown device {name!r}")
        self._edge_capacity[(a, b)] = float(bandwidth_bps)
        self._edge_capacity[(b, a)] = float(bandwidth_bps)
        self._neighbors[a].append(b)
        self._neighbors[b].append(a)
        self._path_memo.clear()

    def set_tenant_pool(self, tenant: str, rate_bps: float) -> None:
        """Cap the total admitted bandwidth chargeable to ``tenant``."""
        if rate_bps < 0:
            raise ValueError(f"negative tenant pool: {rate_bps}")
        self._tenant_pools[tenant] = float(rate_bps)

    @classmethod
    def from_network(cls, net, cpu_bound: float = DEFAULT_BOUND,
                     link_bound: float = DEFAULT_BOUND) -> "AdmissionController":
        """Mirror a :class:`~repro.net.topology.Network`.

        Host CPU bounds come from each host's reserve manager, so the
        controller's utilization test matches what
        :meth:`ReserveManager.request` will later enforce.
        """
        controller = cls(cpu_bound=cpu_bound, link_bound=link_bound)
        for host in net.hosts:
            controller.add_host(
                host.name,
                cpu_bound=host.reserve_manager.utilization_bound,
            )
        for router in net.routers:
            controller.add_router(router.name)
        for link in net.links:
            controller.add_link(link.a.owner.name, link.b.owner.name,
                                link.bandwidth_bps)
        return controller

    # ------------------------------------------------------------------
    # Routing (the forwarding tables' route: hosts never transit)
    # ------------------------------------------------------------------
    def path(self, src: str, dst: str) -> List[str]:
        """Device names along the route src -> dst (memoized).

        A hop-count search rooted at ``dst`` in link order, in which a
        node's next hop is the neighbour that discovered it and only
        routers extend the frontier: the search
        :meth:`Network.compute_routes` runs per destination host, so
        this is the path a packet from ``src`` follows.
        """
        memo = self._path_memo.get((src, dst))
        if memo is not None:
            return list(memo)
        if src not in self._neighbors or dst not in self._neighbors:
            raise KeyError(f"unknown endpoint in path {src!r} -> {dst!r}")
        next_hop = {dst: dst}
        frontier = deque([dst])
        while frontier and src not in next_hop:
            current = frontier.popleft()
            for neighbor in self._neighbors[current]:
                if neighbor not in next_hop:
                    next_hop[neighbor] = current
                    if neighbor in self._routers:
                        frontier.append(neighbor)
        if src not in next_hop:
            raise KeyError(f"no route from {src!r} to {dst!r}")
        hops = [src]
        while hops[-1] != dst:
            hops.append(next_hop[hops[-1]])
        self._path_memo[(src, dst)] = hops
        return list(hops)

    # ------------------------------------------------------------------
    # Books (running totals over the grants, in admission order)
    # ------------------------------------------------------------------
    def cpu_utilization(self, host: str) -> float:
        """Admitted CPU utilization currently charged to ``host``."""
        return self._cpu_totals.get(host, 0.0)

    def link_committed(self, a: str, b: str) -> float:
        """Admitted bits per second on the directed edge a -> b."""
        return self._edge_totals.get((a, b), 0.0)

    def tenant_committed(self, tenant: str) -> float:
        """Admitted bits per second charged to ``tenant``'s pool."""
        return self._tenant_totals.get(tenant, 0.0)

    def tenant_pool(self, tenant: str) -> Optional[float]:
        return self._tenant_pools.get(tenant)

    def admitted_ids(self) -> List[str]:
        return list(self._grants)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def request(
        self,
        stream_id: str,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        rate_bps: float = 0.0,
        cpu: Optional[Mapping[str, Tuple[float, float]]] = None,
        tenant: Optional[str] = None,
    ) -> AdmissionDecision:
        """Admit ``stream_id`` or reject it without touching the books.

        ``rate_bps`` is checked against every directed edge on the
        ``src -> dst`` route; ``cpu`` maps host name to a ``(compute,
        period)`` reserve demand checked against that host's bound.
        When ``tenant`` names a registered pool, the stream's end-to-end
        rate must also fit under that tenant's cap.
        """
        if stream_id in self._grants:
            raise ValueError(f"stream {stream_id!r} already admitted")
        if rate_bps < 0:
            raise ValueError(f"negative rate: {rate_bps}")
        if rate_bps > 0 and (src is None or dst is None):
            raise ValueError("bandwidth admission needs src and dst")
        self.requests_seen += 1

        cpu_demand: Dict[str, float] = {}
        for host, (compute, period) in (cpu or {}).items():
            if host not in self._cpu_bounds:
                raise KeyError(f"unknown host {host!r}")
            if compute <= 0 or period <= 0 or compute > period:
                raise ValueError(
                    f"bad reserve demand C={compute} T={period} on {host!r}"
                )
            cpu_demand[host] = compute / period

        edge_demand: Dict[Edge, float] = {}
        if rate_bps > 0:
            hops = self.path(src, dst)
            for upstream, downstream in zip(hops, hops[1:]):
                edge_demand[(upstream, downstream)] = float(rate_bps)

        # Check everything before committing anything.
        if tenant is not None and tenant in self._tenant_pools \
                and rate_bps > 0:
            pool = self._tenant_pools[tenant]
            after = self.tenant_committed(tenant) + rate_bps
            if after > pool + 1e-9:
                return self._reject(
                    stream_id,
                    f"tenant:{tenant} committed {after / 1e6:.2f} Mbps "
                    f"> pool {pool / 1e6:.2f} Mbps",
                )
        for host, utilization in cpu_demand.items():
            bound = self._cpu_bounds[host]
            after = self.cpu_utilization(host) + utilization
            if after > bound + 1e-12:
                return self._reject(
                    stream_id,
                    f"cpu:{host} utilization {after:.3f} > bound {bound:.3f}",
                )
        for edge, rate in edge_demand.items():
            budget = self._edge_capacity[edge] * self.link_bound
            after = self.link_committed(*edge) + rate
            if after > budget + 1e-9:
                return self._reject(
                    stream_id,
                    f"link:{edge[0]}->{edge[1]} committed "
                    f"{after / 1e6:.2f} Mbps > budget {budget / 1e6:.2f} Mbps",
                )

        grant = _Grant(stream_id, cpu_demand, edge_demand,
                       tenant=tenant, rate_bps=float(rate_bps))
        self._grants[stream_id] = grant
        for host, utilization in cpu_demand.items():
            self._cpu_totals[host] = (
                self._cpu_totals.get(host, 0.0) + utilization)
        for edge, rate in edge_demand.items():
            self._edge_totals[edge] = (
                self._edge_totals.get(edge, 0.0) + rate)
        if tenant is not None:
            self._tenant_totals[tenant] = (
                self._tenant_totals.get(tenant, 0.0) + grant.rate_bps)
        return AdmissionDecision(stream_id, True)

    def _reject(self, stream_id: str, reason: str) -> AdmissionDecision:
        self.requests_rejected += 1
        return AdmissionDecision(stream_id, False, reason)

    def reject_repeats(self, count: int) -> None:
        """Book ``count`` repeats of requests already rejected.

        Every admission test compares a book that only grows against a
        fixed bound, so a request identical (route, rate, tenant, CPU
        demand) to one already rejected would be rejected again, and
        all a rejection leaves behind is these two counters.  A caller
        with a run of identical requests evaluates each distinct one
        until it is rejected and books the rest of the run here.
        """
        if count < 0:
            raise ValueError(f"negative repeat count: {count}")
        self.requests_seen += count
        self.requests_rejected += count
