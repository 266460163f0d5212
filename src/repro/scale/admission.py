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
directed edge on the route, or it changes nothing.  The books are
cached running totals updated incrementally on admit and recomputed
from the set of live grants on revoke, so queries are O(1) even with
10^5 grants outstanding (the fig10 regime) while admit -> revoke ->
re-admit still reproduces the exact same books: an incremental add
appends the newest term to the insertion-order sum, which is bit-for-
bit what the recompute produces (no float-drift between a grant and
its revocation).

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
    """Outcome of one admission request (immutable value object)."""

    __slots__ = ("stream_id", "admitted", "reason")

    def __init__(self, stream_id: str, admitted: bool,
                 reason: Optional[str] = None) -> None:
        self.stream_id = stream_id
        self.admitted = bool(admitted)
        self.reason = reason

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdmissionDecision):
            return NotImplemented
        return (self.stream_id == other.stream_id
                and self.admitted == other.admitted
                and self.reason == other.reason)

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
    # Routing (mirrors Network.path: hosts never transit)
    # ------------------------------------------------------------------
    def path(self, src: str, dst: str) -> List[str]:
        """Device names along the admission route src -> dst (memoized)."""
        memo = self._path_memo.get((src, dst))
        if memo is not None:
            return list(memo)
        if src not in self._neighbors or dst not in self._neighbors:
            raise KeyError(f"unknown endpoint in path {src!r} -> {dst!r}")
        parents: Dict[str, str] = {}
        visited = {src}
        frontier = deque([src])
        while frontier:
            current = frontier.popleft()
            if current == dst:
                break
            if current != src and current not in self._routers:
                continue  # hosts are endpoints, never transit
            for neighbor in self._neighbors[current]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    parents[neighbor] = current
                    frontier.append(neighbor)
        if dst not in visited:
            raise KeyError(f"no route from {src!r} to {dst!r}")
        hops = [dst]
        while hops[-1] != src:
            hops.append(parents[hops[-1]])
        hops.reverse()
        self._path_memo[(src, dst)] = hops
        return list(hops)

    # ------------------------------------------------------------------
    # Books (cached totals; revocation recomputes, leaving no residue)
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

    def _recompute_books(self) -> None:
        """Rebuild every cached total from the live grants.

        Iterates grants in insertion order, so the result is bit-for-bit
        the same float an incremental admit sequence would produce —
        the no-drift guarantee the property suite pins down.
        """
        cpu: Dict[str, float] = {}
        edges: Dict[Edge, float] = {}
        tenants: Dict[str, float] = {}
        for grant in self._grants.values():
            for host, utilization in grant.cpu.items():
                cpu[host] = cpu.get(host, 0.0) + utilization
            for edge, rate in grant.edges.items():
                edges[edge] = edges.get(edge, 0.0) + rate
            if grant.tenant is not None:
                tenants[grant.tenant] = (
                    tenants.get(grant.tenant, 0.0) + grant.rate_bps)
        self._cpu_totals = cpu
        self._edge_totals = edges
        self._tenant_totals = tenants

    def admitted_ids(self) -> List[str]:
        return list(self._grants)

    def is_admitted(self, stream_id: str) -> bool:
        return stream_id in self._grants

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
        # Incremental book update: appends the newest term to the
        # insertion-order sum, matching _recompute_books bit-for-bit.
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

        Every admission test compares a book that only grows between
        revokes against a fixed bound, so a request identical (route,
        rate, tenant, CPU demand) to one rejected since the last revoke
        would be rejected again, and all a rejection leaves behind is
        these two counters.  A caller holding a long run of identical
        requests therefore evaluates each distinct one until it is
        rejected and books the rest of the run here.
        """
        if count < 0:
            raise ValueError(f"negative repeat count: {count}")
        self.requests_seen += count
        self.requests_rejected += count

    def revoke(self, stream_id: str) -> bool:
        """Release a grant; unknown ids are a no-op (returns False)."""
        if self._grants.pop(stream_id, None) is None:
            return False
        self._recompute_books()
        return True
