"""The fluid-flow background-traffic engine.

Per-packet event simulation prices every background datagram at a
queue push, a queue pop and a callback — which is why the fig 9
capacity sweep stops at N=64 streams.  This engine replaces the
*aggregate* traffic (best-effort stream farms, cross traffic) with
fluid flows: piecewise-constant per-flow rate shares that change only
at **epochs** (admission, revocation, link failure/restore, adaptive
contract transitions).  Between epochs nothing is simulated at all;
byte ledgers are integrated analytically (``bytes = rate x dt``) when
the next epoch — or the end of the run — arrives.

Foreground/measured streams stay fully packet-simulated on the
existing kernel.  The hybrid coupling is the **residual-capacity
service model**: each :class:`FluidLink` may be attached to a packet
:class:`~repro.net.link.Interface`, whose transmitter then serializes
packets at ``capacity - fluid_served`` instead of the raw link rate
(:attr:`FluidLink.packet_residual_bps`).  The fluid share computation
in turn budgets for the packet flows' registered nominal rates
(:meth:`FluidLink.register_packet_load`), so neither side double-books
the wire.  Packet-level queueing delay and loss then *emerge* from the
real qdisc draining at the residual rate, while fluid flows carry an
analytic queueing-delay estimate (standing-backlog bound) used for
their own latency metrics.

Rate-share model (per directed link, strict-priority two classes):

* reserved (admitted) fluid flows plus registered reserved packet
  load are served first; admission keeps their sum below capacity, and
  if a fault breaks that the class is scaled proportionally;
* best-effort flows (fluid plus registered packet load) share the
  remaining capacity proportionally to their offered rates — the
  behaviour a tail-dropped FIFO band converges to for constant-rate
  sources;
* per-flow served rate across a path is the product of its links'
  class shares (arrival rates at downstream links are upstream-thinned
  via a small Jacobi fixed-point, exact for single-bottleneck paths).

Epoch recomputes are coalesced onto a :class:`~repro.sim.coalesce.
TickCoalescer` grid so a burst of 100 000 admissions at one simulated
instant costs **one** share recompute, not 100 000.  All float ledgers
follow the :mod:`repro.sim.quantize` policy.

A flow may stand for a **cohort** of ``members`` identical streams.
Its own fields stay per member; every accumulator flows share books it
as ``members`` single flows added in a row would, bit for bit
(:func:`~repro.sim.quantize.add_repeated`), so replacing 10^5 equal
flows by one cohort changes no output anywhere.

Determinism: the engine schedules only through the coalescer, never
consumes random numbers, and iterates flows/links in insertion order,
so a hybrid run is bit-reproducible from its seed like any other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sim.coalesce import TickCoalescer
from repro.sim.kernel import Kernel
from repro.sim.quantize import EPSILON, add_repeated, clamp
from repro.net.diffserv import PhbClass
from repro.net.queues import DiffServQueue

__all__ = ["FluidFlow", "FluidLink", "FluidEngine"]

#: Never let the hybrid residual starve the packet plane completely:
#: the transmitter keeps at least this fraction of raw link capacity.
MIN_RESIDUAL_FRACTION = 1e-6

#: Shares closer to 1 than this are treated as uncongested.
_SHARE_EPS = 1e-6


class FluidFlow:
    """A cohort of ``members`` identical fluid streams on one path.

    Every per-flow field (rates, shares, latency, byte ledgers) is the
    value of *one* member; the engine books the cohort on the shared
    link accumulators as ``members`` single flows added in a row.
    """

    __slots__ = (
        "name", "reserved", "adaptive", "members", "links",
        "rate_bps", "nominal_bps", "deadline",
        "served_share", "latency",
        "offered_bytes", "served_bytes", "lost_bytes", "shed_bytes",
        "served_on_time_bytes", "latency_time_sum", "active_seconds",
    )

    def __init__(self, name: str, rate_bps: float,
                 links: Sequence["FluidLink"], reserved: bool = False,
                 adaptive: bool = False, members: int = 1,
                 nominal_bps: Optional[float] = None,
                 deadline: Optional[float] = None) -> None:
        self.name = name
        self.reserved = bool(reserved)
        self.adaptive = bool(adaptive)
        #: Identical streams this flow stands for (1 = a plain flow).
        self.members = int(members)
        self.links: List["FluidLink"] = list(links)
        #: Offered on-wire rate right now (piecewise constant).
        self.rate_bps = float(rate_bps)
        #: The rate the application *wants*; the adaptive governor sheds
        #: ``rate_bps`` below this and books the gap as ``shed_bytes``.
        self.nominal_bps = float(nominal_bps if nominal_bps is not None
                                 else rate_bps)
        #: Frames later than this are deadline misses (None = no deadline).
        self.deadline = deadline
        #: Fraction of the offered rate currently delivered end to end.
        self.served_share = 1.0
        #: Current end-to-end latency estimate (s).
        self.latency = 0.0
        # -- integrated ledgers (bytes / seconds) -----------------------
        self.offered_bytes = 0.0
        self.served_bytes = 0.0
        self.lost_bytes = 0.0
        #: Bytes the governor shed at the source (nominal - offered).
        self.shed_bytes = 0.0
        #: Served bytes whose latency estimate met the deadline.
        self.served_on_time_bytes = 0.0
        #: Integral of latency over active time (for the time-weighted mean).
        self.latency_time_sum = 0.0
        self.active_seconds = 0.0

    # -- derived metrics ------------------------------------------------
    @property
    def loss_fraction(self) -> float:
        """Lifetime fraction of offered bytes that were lost."""
        if self.offered_bytes <= 0.0:
            return 0.0
        return self.lost_bytes / self.offered_bytes

    @property
    def mean_latency(self) -> float:
        """Time-weighted mean of the latency estimate."""
        if self.active_seconds <= 0.0:
            return 0.0
        return self.latency_time_sum / self.active_seconds

    def __repr__(self) -> str:  # pragma: no cover
        cls = "res" if self.reserved else "be"
        return (f"<FluidFlow {self.name!r} {cls} x{self.members} "
                f"{self.rate_bps / 1e6:.2f}Mbps share={self.served_share:.3f}>")


class FluidLink:
    """The fluid view of one directed link (optionally hybrid-attached).

    Parameters
    ----------
    name:
        Stable label (``"router->dst"`` style).
    capacity_bps:
        Serialization capacity.  When an interface is attached the live
        ``iface.link.bandwidth_bps`` wins, so degrade faults are seen
        at the next epoch.
    iface:
        Optional packet :class:`~repro.net.link.Interface` to couple:
        its transmitter reads :attr:`packet_residual_bps` and its
        ``fail``/``restore`` notifications drive epochs.
    delay:
        Propagation delay contributed to flow latency estimates.
    queue_bytes:
        Standing best-effort backlog bound (the qdisc band budget the
        fluid aggregate consumes) used for the queueing-delay estimate.
    """

    __slots__ = (
        "name", "engine", "iface", "delay", "queue_bytes", "up",
        "_capacity_bps", "packet_reserved_bps", "packet_be_bps",
        "reserved_share", "be_share", "fluid_served_bps", "fluid_be_in_bps",
        "packet_residual_bps", "be_queue_delay", "_be_band_nominal",
        "offered_bytes", "served_bytes", "lost_bytes",
    )

    def __init__(self, name: str, engine: "FluidEngine",
                 capacity_bps: float, iface=None, delay: float = 50e-6,
                 queue_bytes: float = 300_000.0) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        self.name = name
        self.engine = engine
        self.iface = iface
        self.delay = float(delay)
        self.queue_bytes = float(queue_bytes)
        self.up = True
        self._capacity_bps = float(capacity_bps)
        #: Nominal rates of packet-simulated flows using this link,
        #: accounted in the share math so fluid never books their share
        #: of the wire.
        self.packet_reserved_bps = 0.0
        self.packet_be_bps = 0.0
        # -- recomputed at each epoch -----------------------------------
        self.reserved_share = 1.0
        self.be_share = 1.0
        self.fluid_served_bps = 0.0
        self.fluid_be_in_bps = 0.0
        self.packet_residual_bps = float(capacity_bps)
        self.be_queue_delay = 0.0
        #: The attached qdisc's native BE band capacity, captured the
        #: first time the fluid aggregate claims its share of it.
        self._be_band_nominal: Optional[int] = None
        # -- integrated ledgers (fluid bytes only) ----------------------
        self.offered_bytes = 0.0
        self.served_bytes = 0.0
        self.lost_bytes = 0.0

    @property
    def capacity_bps(self) -> float:
        """Live capacity: the attached link's bandwidth wins."""
        if self.iface is not None:
            return self.iface.link.bandwidth_bps
        return self._capacity_bps

    # ------------------------------------------------------------------
    def register_packet_load(self, rate_bps: float,
                             reserved: bool = False) -> None:
        """Budget a packet-simulated flow's nominal rate on this link."""
        if rate_bps < 0:
            raise ValueError(f"negative packet load: {rate_bps}")
        self.engine._sync()
        if reserved:
            self.packet_reserved_bps += float(rate_bps)
        else:
            self.packet_be_bps += float(rate_bps)
        self.engine._mark_dirty()

    def _apply_queue_budget(self) -> None:
        """Shrink the attached qdisc's BE band to the packet share.

        The fluid aggregate occupies its proportional share of the
        standing best-effort backlog, so the packet-simulated flows may
        only fill the remainder — without this, hybrid best-effort
        packets would see the *whole* band budget drained at the
        *residual* rate and report queueing delays a large factor above
        the packet-level ground truth.
        """
        iface = self.iface
        if iface is None:
            return
        qdisc = iface.qdisc
        if not isinstance(qdisc, DiffServQueue):
            return  # plain FIFO etc.: no band budget to share
        if self._be_band_nominal is None:
            self._be_band_nominal = qdisc.band_capacity(PhbClass.DEFAULT)
        fluid_be = self.fluid_be_in_bps
        if fluid_be <= EPSILON:
            share = 1.0
        else:
            total = self.packet_be_bps + fluid_be
            share = self.packet_be_bps / total if total > EPSILON else 1.0
        qdisc.set_band_capacity(
            PhbClass.DEFAULT, max(1, int(round(self._be_band_nominal * share))))

    def on_link_state(self, up: bool) -> None:
        """Fault-layer notification: the underlying link failed/restored."""
        if up == self.up:
            return
        self.engine._sync()
        self.up = bool(up)
        self.engine._mark_dirty()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FluidLink {self.name!r} {self.capacity_bps / 1e6:.1f}Mbps "
                f"be_share={self.be_share:.3f}>")


class FluidEngine:
    """Owns the fluid flows/links of one simulation and their epochs.

    Epoch triggers — :meth:`add_flow`, :meth:`remove_flow`,
    :meth:`set_rate`, :meth:`FluidLink.on_link_state`,
    :meth:`FluidLink.register_packet_load`, and the adaptive governor —
    all integrate the elapsed interval first (old rates), then mark the
    share solve dirty; the solve itself is coalesced onto the
    ``quantum`` grid so same-instant bursts share one recompute.

    ``finalize()`` must run after ``kernel.run`` returns: it integrates
    the tail interval so the ledgers cover the full horizon.
    """

    #: Jacobi passes for the share fixed-point (exact in 2 passes for
    #: single-bottleneck paths; the cap bounds pathological topologies).
    MAX_PASSES = 8
    #: Governor/share relaxation rounds within one epoch.
    MAX_GOVERNOR_ROUNDS = 6
    #: Adaptive flows shed when their share drops below this.
    GOVERNOR_TRIGGER = 0.95
    #: ...but never below this fraction of their nominal rate.
    GOVERNOR_FLOOR_FRACTION = 0.1
    #: Reaction delay before a shed takes effect (a QuO contract
    #: observes loss over a window before transitioning regions).
    GOVERNOR_DELAY = 1.0

    def __init__(self, kernel: Kernel, quantum: float = 1e-3,
                 governor_delay: Optional[float] = None) -> None:
        self.kernel = kernel
        self.coalescer = TickCoalescer(kernel, quantum)
        self.governor_delay = (self.GOVERNOR_DELAY if governor_delay is None
                               else float(governor_delay))
        self._links: Dict[str, FluidLink] = {}
        self._flows: Dict[str, FluidFlow] = {}
        self._last_sync = kernel.now
        self._dirty = False
        self._governor_pending = False
        self._closed = False
        #: Share recomputes performed (observability / BENCH).
        self.epochs = 0
        #: Governor rate transitions applied (observability).
        self.governor_transitions = 0

    # ------------------------------------------------------------------
    # Topology / flows
    # ------------------------------------------------------------------
    def add_link(self, name: str, capacity_bps: float, iface=None,
                 delay: float = 50e-6,
                 queue_bytes: float = 300_000.0) -> FluidLink:
        if name in self._links:
            raise ValueError(f"duplicate fluid link {name!r}")
        link = FluidLink(name, self, capacity_bps, iface=iface,
                         delay=delay, queue_bytes=queue_bytes)
        self._links[name] = link
        if iface is not None:
            if iface.fluid is not None:
                raise ValueError(
                    f"interface {iface.name!r} already has a fluid link")
            iface.fluid = link
        return link

    def attach_interface(self, name: str, iface, queue_bytes: float = 300_000.0,
                         delay: Optional[float] = None) -> FluidLink:
        """Shorthand: fluid link mirroring a packet interface's egress."""
        return self.add_link(
            name, iface.link.bandwidth_bps, iface=iface,
            delay=iface.link.delay if delay is None else delay,
            queue_bytes=queue_bytes)

    def links(self) -> List[FluidLink]:
        return list(self._links.values())

    def flows(self) -> List[FluidFlow]:
        return list(self._flows.values())

    def flow(self, name: str) -> FluidFlow:
        return self._flows[name]

    def add_flow(self, name: str, rate_bps: float,
                 links: Sequence[FluidLink], reserved: bool = False,
                 adaptive: bool = False, members: int = 1,
                 nominal_bps: Optional[float] = None,
                 deadline: Optional[float] = None) -> FluidFlow:
        if name in self._flows:
            raise ValueError(f"duplicate fluid flow {name!r}")
        if rate_bps < 0:
            raise ValueError(f"negative rate: {rate_bps}")
        if not links:
            raise ValueError(f"fluid flow {name!r} needs at least one link")
        if members < 1:
            raise ValueError(f"fluid flow {name!r} needs at least one "
                             f"member, got {members}")
        self._sync()
        flow = FluidFlow(name, rate_bps, links, reserved=reserved,
                         adaptive=adaptive, members=members,
                         nominal_bps=nominal_bps, deadline=deadline)
        self._flows[name] = flow
        self._mark_dirty()
        return flow

    def remove_flow(self, name: str) -> bool:
        """Revoke a flow; unknown names are a no-op (returns False)."""
        if name not in self._flows:
            return False
        self._sync()
        del self._flows[name]
        self._mark_dirty()
        return True

    def set_rate(self, name: str, rate_bps: float) -> None:
        """Change a flow's offered rate (an explicit epoch trigger)."""
        if rate_bps < 0:
            raise ValueError(f"negative rate: {rate_bps}")
        self._sync()
        flow = self._flows[name]
        flow.rate_bps = float(rate_bps)
        if flow.rate_bps > flow.nominal_bps:
            # The application now wants more: shedding is measured from
            # (and the governor recovers toward) the new rate.
            flow.nominal_bps = flow.rate_bps
        self._mark_dirty()

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def _mark_dirty(self) -> None:
        if self._dirty or self._closed:
            return
        self._dirty = True
        self.coalescer.call_after(0.0, self._epoch_event)

    def _epoch_event(self) -> None:
        # A coalesced recompute may fire after close() (teardown) or
        # after an earlier same-tick event already resolved the epoch;
        # both are deliberate no-ops.
        if self._closed or not self._dirty:
            return
        self._dirty = False
        self._sync()
        self._recompute()

    def _sync(self) -> None:
        """Integrate the interval since the last sync at current rates."""
        now = self.kernel.now
        dt = now - self._last_sync
        if dt <= 0.0:
            return
        self._last_sync = now
        for flow in self._flows.values():
            rate = flow.rate_bps
            offered = rate * dt / 8.0
            served = offered * flow.served_share
            flow.offered_bytes += offered
            flow.served_bytes += served
            flow.lost_bytes += clamp(offered - served, 0.0, offered)
            if flow.nominal_bps > rate:
                flow.shed_bytes += (flow.nominal_bps - rate) * dt / 8.0
            flow.latency_time_sum += flow.latency * dt
            flow.active_seconds += dt
            if flow.deadline is None or flow.latency <= flow.deadline:
                flow.served_on_time_bytes += served
        # Per-link ledgers: one pass over flows, walking each path and
        # thinning the arrival rate by the upstream shares (exact
        # because rates were piecewise constant over the interval).
        for flow in self._flows.values():
            rate = flow.rate_bps
            reserved = flow.reserved
            members = flow.members
            for hop in flow.links:
                if not hop.up:
                    break
                share = hop.reserved_share if reserved else hop.be_share
                offered = rate * dt / 8.0
                served = offered * share
                lost = clamp(offered - served, 0.0, offered)
                if members == 1:
                    hop.offered_bytes += offered
                    hop.served_bytes += served
                    hop.lost_bytes += lost
                else:
                    hop.offered_bytes = add_repeated(
                        hop.offered_bytes, offered, members)
                    hop.served_bytes = add_repeated(
                        hop.served_bytes, served, members)
                    hop.lost_bytes = add_repeated(
                        hop.lost_bytes, lost, members)
                rate *= share

    def _recompute(self) -> None:
        """Solve the piecewise-constant shares; apply the governor."""
        self.epochs += 1
        links = list(self._links.values())
        flows = list(self._flows.values())
        shed_requests: List[tuple] = []
        for _round in range(self.MAX_GOVERNOR_ROUNDS):
            self._solve_shares(links, flows)
            shed_requests = self._governor_candidates(flows)
            if not shed_requests or self.governor_delay > 0.0:
                break
            # Immediate governor (delay 0): relax in-place this epoch.
            for flow, new_rate in shed_requests:
                flow.rate_bps = new_rate
                self.governor_transitions += flow.members
            shed_requests = []
        if shed_requests and not self._governor_pending:
            self._governor_pending = True
            self.coalescer.call_after(self.governor_delay,
                                      self._governor_event)
        tracer = self.kernel.tracer
        if tracer is not None:
            for link in links:
                tracer.instant(
                    "fluid", "epoch",
                    fields={"link": link.name, "epoch": self.epochs,
                            "reserved_share": link.reserved_share,
                            "be_share": link.be_share,
                            "residual": link.packet_residual_bps},
                )

    def _solve_shares(self, links: List[FluidLink],
                      flows: List[FluidFlow]) -> None:
        capacities = {link: (link.capacity_bps if link.up else 0.0)
                      for link in links}
        for _ in range(self.MAX_PASSES):
            res_in = {link: link.packet_reserved_bps for link in links}
            be_in = {link: link.packet_be_bps for link in links}
            for flow in flows:
                rate = flow.rate_bps
                reserved = flow.reserved
                members = flow.members
                bucket = res_in if reserved else be_in
                for hop in flow.links:
                    if not hop.up:
                        rate = 0.0
                        break
                    if members == 1:
                        bucket[hop] += rate
                    else:
                        bucket[hop] = add_repeated(bucket[hop], rate, members)
                    rate *= hop.reserved_share if reserved else hop.be_share
            worst = 0.0
            for link in links:
                cap = capacities[link]
                total_res = res_in[link]
                if cap <= 0.0:
                    new_res_share = 0.0
                    new_be_share = 0.0
                elif total_res > cap:
                    # A fault broke the admission guarantee: the
                    # reserved class degrades proportionally and
                    # best effort starves entirely.
                    new_res_share = cap / total_res
                    new_be_share = 0.0
                else:
                    new_res_share = 1.0
                    be_cap = cap - total_res
                    total_be = be_in[link]
                    if total_be <= EPSILON:
                        new_be_share = 1.0
                    elif total_be <= be_cap:
                        new_be_share = 1.0
                    else:
                        new_be_share = be_cap / total_be
                worst = max(worst,
                            abs(new_res_share - link.reserved_share),
                            abs(new_be_share - link.be_share))
                link.reserved_share = new_res_share
                link.be_share = new_be_share
            if worst <= _SHARE_EPS:
                break
        # Final pass: per-link served aggregates + per-flow end-to-end
        # shares and latency estimates from the converged fixed point.
        fluid_served = {link: 0.0 for link in links}
        res_served = {link: 0.0 for link in links}
        fluid_be_in = {link: 0.0 for link in links}
        for flow in flows:
            offered = rate = flow.rate_bps
            reserved = flow.reserved
            members = flow.members
            for hop in flow.links:
                if not hop.up:
                    rate = 0.0
                    break
                share = hop.reserved_share if reserved else hop.be_share
                served = rate * share
                if members == 1:
                    if reserved:
                        res_served[hop] += served
                    else:
                        fluid_be_in[hop] += rate
                    fluid_served[hop] += served
                else:
                    if reserved:
                        res_served[hop] = add_repeated(
                            res_served[hop], served, members)
                    else:
                        fluid_be_in[hop] = add_repeated(
                            fluid_be_in[hop], rate, members)
                    fluid_served[hop] = add_repeated(
                        fluid_served[hop], served, members)
                rate *= share
            flow.served_share = (rate / offered if offered > EPSILON else
                                 (1.0 if offered == 0.0 else 0.0))
        for link in links:
            cap = capacities[link]
            served = min(fluid_served[link], cap)
            link.fluid_served_bps = served
            link.fluid_be_in_bps = fluid_be_in[link]
            raw_cap = link.capacity_bps
            link.packet_residual_bps = max(
                raw_cap - served, raw_cap * MIN_RESIDUAL_FRACTION)
            link._apply_queue_budget()
            if not link.up:
                link.be_queue_delay = 0.0
            elif link.be_share < 1.0 - _SHARE_EPS:
                # The BE band is standing full: waiting time is the
                # backlog bound drained at the class service rate
                # (capacity left after the strict-priority reserved
                # class, fluid and packet alike).
                be_service = max(
                    cap - link.packet_reserved_bps - res_served[link],
                    cap * MIN_RESIDUAL_FRACTION)
                link.be_queue_delay = link.queue_bytes * 8.0 / be_service
            else:
                link.be_queue_delay = 0.0
        # Latency estimates need the queue delays just computed.
        for flow in flows:
            latency = 0.0
            for hop in flow.links:
                if not hop.up:
                    break
                latency += hop.delay
                if not flow.reserved:
                    latency += hop.be_queue_delay
            flow.latency = latency

    def _governor_candidates(self, flows: List[FluidFlow]) -> List[tuple]:
        out = []
        for flow in flows:
            if not flow.adaptive or flow.reserved:
                continue
            share = flow.served_share
            if share >= self.GOVERNOR_TRIGGER:
                continue
            floor = flow.nominal_bps * self.GOVERNOR_FLOOR_FRACTION
            new_rate = clamp(flow.rate_bps * share, floor, flow.nominal_bps)
            if abs(new_rate - flow.rate_bps) > 0.01 * flow.nominal_bps:
                out.append((flow, new_rate))
        return out

    def _governor_event(self) -> None:
        self._governor_pending = False
        if self._closed:
            return
        self._sync()
        changed = False
        for flow, new_rate in self._governor_candidates(
                list(self._flows.values())):
            flow.rate_bps = new_rate
            self.governor_transitions += flow.members
            changed = True
        if changed:
            self._mark_dirty()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Integrate up to ``kernel.now``; call after the run completes."""
        self._sync()

    def close(self) -> None:
        """Detach: pending coalesced epochs/governor events become no-ops."""
        self._closed = True
        self._dirty = False
        self._governor_pending = False

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FluidEngine flows={len(self._flows)} "
                f"links={len(self._links)} epochs={self.epochs}>")
