"""Reserve-based admission control over CPU and link budgets.

The stream farm asks one question per stream before it binds: *if this
stream gets the CPU reserve and RSVP reservation it wants, does any
host exceed its utilization bound or any egress its bandwidth budget?*
The :class:`AdmissionController` answers it by reading the network it
admits onto, so it applies exactly what the enforcing layers will:

- the route is the walk of the installed forwarding tables
  (``device.routes[dst]`` hop by hop, as
  :meth:`~repro.net.topology.Network.compute_routes` or the live
  routing engine filled them), so a grant books the egresses the RSVP
  PATH actually crosses;
- an egress's budget is its link's as-built rate times the owning
  device's :class:`~repro.net.intserv.RsvpAgent` utilization bound;
- a host's CPU bound is its
  :class:`~repro.oskernel.reserve.ReserveManager`'s.

A stream the controller admits is therefore guaranteed to succeed when
the reserve is actually requested and the RESV message actually
travels the path.

Admission is all-or-nothing and rejection is side-effect free: a
request either commits a grant covering every demanded host and every
egress on the route, or it changes nothing.  Grants are never released
(a stream holds its grant for the rest of the run), so the books are
running totals that only grow; requests are decided before any reserve
or reservation exists, which is why the controller keeps books at all.

Multi-tenant isolation: :meth:`set_tenant_pool` caps the total
admitted bandwidth per tenant, checked before the per-link budgets, so
one tenant's overload burst cannot consume another tenant's headroom
even when the shared links still have capacity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Interface
    from repro.net.topology import Network


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


class AdmissionController:
    """Accept or reject per-stream CPU reserves and bandwidth requests
    against the routes, RSVP bounds and reserve bounds of ``network``.

    The network must be routed and, for bandwidth requests, have RSVP
    agents on every device a route leaves from
    (:meth:`~repro.net.topology.Network.enable_intserv`).
    """

    def __init__(self, network: "Network") -> None:
        self.network = network
        #: Admitted stream ids, in admission order.
        self._admitted: Dict[str, None] = {}
        #: Cached books: insertion-order running sums over the grants.
        self._cpu_totals: Dict[str, float] = {}
        self._egress_totals: Dict["Interface", float] = {}
        self._tenant_totals: Dict[str, float] = {}
        #: Tenant name -> admitted-bandwidth pool cap (bits per second).
        self._tenant_pools: Dict[str, float] = {}
        #: Totals for observability (requests seen / rejected).
        self.requests_seen = 0
        self.requests_rejected = 0

    def set_tenant_pool(self, tenant: str, rate_bps: float) -> None:
        """Cap the total admitted bandwidth chargeable to ``tenant``."""
        if rate_bps < 0:
            raise ValueError(f"negative tenant pool: {rate_bps}")
        self._tenant_pools[tenant] = float(rate_bps)

    # ------------------------------------------------------------------
    # Books (running totals over the grants, in admission order)
    # ------------------------------------------------------------------
    def cpu_utilization(self, host: str) -> float:
        """Admitted CPU utilization currently charged to ``host``."""
        return self._cpu_totals.get(host, 0.0)

    def committed(self, egress: "Interface") -> float:
        """Admitted bits per second leaving by ``egress``."""
        return self._egress_totals.get(egress, 0.0)

    def tenant_committed(self, tenant: str) -> float:
        """Admitted bits per second charged to ``tenant``'s pool."""
        return self._tenant_totals.get(tenant, 0.0)

    def tenant_pool(self, tenant: str) -> Optional[float]:
        return self._tenant_pools.get(tenant)

    def admitted_ids(self) -> List[str]:
        return list(self._admitted)

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

        ``rate_bps`` is checked against every egress on the ``src ->
        dst`` route; ``cpu`` maps host name to a ``(compute, period)``
        reserve demand checked against that host's bound.  When
        ``tenant`` names a registered pool, the stream's end-to-end
        rate must also fit under that tenant's cap.
        """
        if stream_id in self._admitted:
            raise ValueError(f"stream {stream_id!r} already admitted")
        if rate_bps < 0:
            raise ValueError(f"negative rate: {rate_bps}")
        if rate_bps > 0 and (src is None or dst is None):
            raise ValueError("bandwidth admission needs src and dst")
        self.requests_seen += 1

        cpu_demand: Dict[str, Tuple[float, float]] = {}
        for host, (compute, period) in (cpu or {}).items():
            bound = self.network.host(host).reserve_manager.utilization_bound
            if compute <= 0 or period <= 0 or compute > period:
                raise ValueError(
                    f"bad reserve demand C={compute} T={period} on {host!r}"
                )
            cpu_demand[host] = (compute / period, bound)

        # The route: walk the installed forwarding tables from src.
        egress_budgets: Dict["Interface", float] = {}
        if rate_bps > 0:
            device = self.network.device(src)
            while device.name != dst:
                egress = device.routes.get(dst)
                if egress is None or egress in egress_budgets:
                    raise KeyError(f"no route from {src!r} to {dst!r} "
                                   f"at {device.name!r}")
                agent = device.rsvp_agent
                if agent is None:
                    raise ValueError(f"no RSVP agent on {egress.label!r}")
                egress_budgets[egress] = (egress.link.nominal_bandwidth_bps
                                          * agent.utilization_bound)
                device = egress.peer.owner

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
        for host, (utilization, bound) in cpu_demand.items():
            after = self.cpu_utilization(host) + utilization
            if after > bound + 1e-12:
                return self._reject(
                    stream_id,
                    f"cpu:{host} utilization {after:.3f} > bound {bound:.3f}",
                )
        for egress, budget in egress_budgets.items():
            after = self.committed(egress) + rate_bps
            if after > budget + 1e-9:
                return self._reject(
                    stream_id,
                    f"link:{egress.name} committed "
                    f"{after / 1e6:.2f} Mbps > budget {budget / 1e6:.2f} Mbps",
                )

        self._admitted[stream_id] = None
        for host, (utilization, _) in cpu_demand.items():
            self._cpu_totals[host] = (
                self._cpu_totals.get(host, 0.0) + utilization)
        for egress in egress_budgets:
            self._egress_totals[egress] = (
                self._egress_totals.get(egress, 0.0) + rate_bps)
        if tenant is not None:
            self._tenant_totals[tenant] = (
                self._tenant_totals.get(tenant, 0.0) + rate_bps)
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
