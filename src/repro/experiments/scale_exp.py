"""Fig 10: admission control at 10^2..10^5 streams via the hybrid model.

Fig 9 answers the paper's capacity question at N <= 64, the most the
per-packet simulation affords: every background packet costs an
enqueue, a dequeue and a transmit callback.  Fig 10 asks the same
question at "millions of users" scale by splitting the workload:

* a small **measured** cohort (a handful of admitted and rejected
  streams) stays fully packet-simulated — real MPEG sources, real
  fragmentation, real qdiscs, real RSVP reservations — so packet-level
  QoS metrics (latency distributions, per-frame deadline misses) come
  from the genuine mechanisms;
* the remaining tens of thousands of streams and the cross traffic
  become :class:`~repro.fluid.engine.FluidFlow` aggregates, costing one
  share recompute per rate-change epoch instead of millions of packet
  events, with byte/loss/latency ledgers integrated analytically.
  Unmeasured streams of one class are identical, so each maximal
  index-ordered run of them is *one* cohort flow with that many
  members: an arm builds a handful of flows whatever N is.

The two halves are coupled through the bottleneck's hybrid service
model (fluid residual capacity + shared qdisc budget), and the hybrid
is validated against the pure packet-level run at N <= 64 by
``tests/scale/test_fig10_hybrid_validation.py`` with the error bounds
stated there.

Arms:

``best-effort``
    No admission: all N streams compete for the bottleneck.
``reserves``
    :class:`~repro.scale.admission.AdmissionController` with per-tenant
    reserve pools; admitted streams get reservations, rejected ones
    fall back to best effort.
``adaptive``
    Reserves plus adaptation: rejected streams shed toward the rate
    that fits (QuO qosket for measured streams, the fluid governor for
    aggregate ones).
``overload``
    Reserves under a skewed tenant storm: tenant 0 demands half the
    streams; its pool caps the damage and the other tenants' admission
    is unaffected — the isolation claim at scale.

CPU reserves are deliberately out of the picture (``thread=None``,
zero encode cost): fig 9 showed the encode-host utilization bound
saturating at ~10 streams, so carrying the CPU model to N=10^5 would
only measure that same wall.  Fig 10 isolates the *network* admission
axis; the access fabric is provisioned to keep the shared bottleneck
link the only contended resource.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Set, Tuple

from repro.sim.quantize import add_repeated
from repro.net.diffserv import Dscp
from repro.net.packet import HEADER_BYTES
from repro.avstreams.endpoints import FRAGMENT_BYTES
from repro.net.traffic import CbrTrafficSource
from repro.core.policies import QosPolicy
from repro.experiments.arm import Arm, ArmResult, Claim, sweep_lookup
from repro.experiments.reporting import render_table
from repro.experiments.testbed import Testbed
from repro.fluid.engine import FluidEngine
from repro.scale.admission import AdmissionController
from repro.experiments.capacity_exp import (
    BASE_CORBA_PRIORITY,
    DEADLINE,
    LANE_STEP,
    RESERVE_BPS,
    RESERVE_BUCKET_BYTES,
    StreamPlan,
    StreamRow,
    UTILIZATION_BOUND,
    VIDEO_BITRATE_BPS,
    VIDEO_FPS,
    start_farm,
    stop_farm,
)

#: Nominal frame payload and its fragmentation (matches FlowProducer).
FRAME_BYTES = int(VIDEO_BITRATE_BPS / 8.0 / VIDEO_FPS)
_FRAGMENTS = -(-FRAME_BYTES // FRAGMENT_BYTES)  # ceil division
#: Actual on-wire rate of one nominal stream (payload + per-fragment
#: headers) — the rate a fluid flow must offer so the aggregate loads
#: the bottleneck exactly like its packet-simulated counterpart.
WIRE_RATE_BPS = (FRAME_BYTES + _FRAGMENTS * HEADER_BYTES) * 8.0 * VIDEO_FPS
#: Mean on-wire fragment size; converts the qdisc's packet-count band
#: budget into the byte backlog the fluid delay estimate uses.
MEAN_FRAGMENT_BYTES = (FRAME_BYTES + _FRAGMENTS * HEADER_BYTES) / _FRAGMENTS
#: The shared qdiscs' best-effort band budget (packets).
BAND_CAPACITY = 200

#: Fig 10 sweep defaults: a 1 Gbps bottleneck (so admission holds
#: hundreds of reserves) swept to 10^5 offered streams.
SCALE_BOTTLENECK_BPS = 1e9
SCALE_CROSS_TRAFFIC_BPS = 100e6
SCALE_TENANTS = 4
#: Measured cohort size per class (admitted / best-effort).
MEASURED_PER_CLASS = 4


@dataclass
class ScaleArm(Arm):
    """One fig 10 arm: admission / adaptation / tenant-skew switches."""

    name: str
    admission: bool = False
    adaptation: bool = False
    overload: bool = False

    def policy(self, corba: Optional[int], admitted: bool) -> QosPolicy:
        """A measured stream's point given its CORBA lane and admission
        verdict: an admitted stream is priority + DSCP with a mandatory
        RSVP reservation (no CPU reserve: see the module docstring), a
        rejected one best effort."""
        if not admitted:
            return QosPolicy()
        return QosPolicy(
            corba, dscp=True,
            reservation=QosPolicy.flow(RESERVE_BPS, RESERVE_BUCKET_BYTES))


def scale_arms() -> List[ScaleArm]:
    return [
        ScaleArm("best-effort"),
        ScaleArm("reserves", admission=True),
        ScaleArm("adaptive", admission=True, adaptation=True),
        ScaleArm("overload", admission=True, overload=True),
    ]


def fig10_stream_counts() -> List[int]:
    """The canonical N sweep: 10^2 .. 10^5 offered streams."""
    return [100, 1000, 10_000, 100_000]


#: Per-class aggregate over measured + fluid streams; plain data so
#: payload bytes are stable across workers.
ScaleClassStats = namedtuple("ScaleClassStats", [
    "count",          # streams in the class (measured + fluid)
    "measured",       # packet-simulated subset size
    "mean_fps",       # delivered frames / s, averaged over the class
    "min_fps",
    "loss_rate",      # lost / offered (bytes for fluid, frames measured)
    "miss_rate",      # 1 - on-time fraction of generated
    "mean_latency",   # class mean delivery latency (s)
    "p95_latency",    # p95 over measured deliveries (None if unmeasured)
])

#: One fluid flow's byte ledgers at the end of the run (per member).
FlowBooks = namedtuple("FlowBooks", [
    "name", "reserved", "members",
    "offered_bytes", "served_bytes", "lost_bytes",
])

#: The fluid bottleneck's books at the end of the run (fluid bytes only).
LinkBooks = namedtuple("LinkBooks", [
    "name", "be_share", "offered_bytes", "served_bytes", "lost_bytes",
])


def _stream_name(index: int) -> str:
    return f"s{index:05d}"


def _tenant_segments(arm: ScaleArm, streams: int,
                     tenants: int) -> List[Tuple[int, int, List[str]]]:
    """``(start, stop, cycle)`` runs covering streams ``0..N-1``:
    stream ``i`` of a run belongs to tenant ``cycle[i % len(cycle)]``."""
    if tenants <= 1:
        return [(0, streams, ["t0"])]
    if arm.overload:
        # The storm: tenant 0 floods half the offered load.
        storm = streams // 2
        others = [f"t{j}" for j in range(1, tenants)]
        return [(0, storm, ["t0"]), (storm, streams, others)]
    return [(0, streams, [f"t{j}" for j in range(tenants)])]


def _admit_population(controller: AdmissionController, arm: ScaleArm,
                      streams: int, tenants: int) -> List[int]:
    """Indices admitted when streams ``0..N-1`` ask in index order.

    Every request has the same route and rate, so once a tenant has
    been rejected all its later requests are rejected too (see
    :meth:`AdmissionController.reject_repeats`): each segment is walked
    only until all of its tenants have been turned away once — by
    their pool or by the link — and the remainder is booked in one
    call.  The cost is O(admitted), not O(offered).
    """
    admitted: List[int] = []
    for start, stop, cycle in _tenant_segments(arm, streams, tenants):
        still_open = set(cycle)
        i = start
        while i < stop and still_open:
            tenant = cycle[i % len(cycle)]
            decision = controller.request(
                _stream_name(i), src="src", dst="dst", rate_bps=RESERVE_BPS,
                tenant=tenant)
            if decision.admitted:
                admitted.append(i)
            else:
                still_open.discard(tenant)
            i += 1
        controller.reject_repeats(stop - i)
    return admitted


def _class_runs(streams: int, admitted: List[int],
                measured: Set[int]) -> List[Tuple[int, bool, int]]:
    """Maximal index-ordered ``(first, reserved, members)`` runs of one
    class over the unmeasured streams; ``admitted`` is ascending.

    Index order is kept because both classes feed the same link
    accumulators and float addition does not commute across a
    reordering; within a run every stream is identical.
    """
    runs: List[Tuple[int, bool, int]] = []

    def extend(first: int, reserved: bool, members: int) -> None:
        if members <= 0:
            return
        if runs and runs[-1][1] == reserved:
            first, _, before = runs.pop()
            members += before
        runs.append((first, reserved, members))

    position = 0
    for index in sorted(measured.union(admitted)):
        extend(position, False, index - position)
        if index not in measured:
            extend(index, True, 1)
        position = index + 1
    extend(position, False, streams - position)
    return runs


class ScaleResult(ArmResult):
    """One (arm, N) fig 10 point: rows, class aggregates and the fluid
    model's books, with no per-stream bulk and no live engine."""

    def __init__(self, arm: ScaleArm, streams: int, duration: float,
                 deadline: float, fluid: bool, tenants: int) -> None:
        super().__init__(arm, duration)
        self.streams = int(streams)
        self.deadline = float(deadline)
        self.fluid = bool(fluid)
        self.tenants = int(tenants)
        self.measure_start = 0.0
        #: Packet-simulated cohort, fig 9's row schema.
        self.measured_rows: List[StreamRow] = []
        #: Class aggregates over the *whole* population.
        self.admitted_stats: Optional[ScaleClassStats] = None
        self.best_effort_stats: Optional[ScaleClassStats] = None
        self.admitted_count = 0
        #: tenant -> (committed bps, pool bps or None).
        self.tenant_books: Dict[str, Tuple[float, Optional[float]]] = {}
        self.requests_rejected = 0
        self.fluid_epochs = 0
        self.governor_transitions = 0
        self.clock_ticks = 0
        self.bottleneck_committed_bps = 0.0
        #: Each fluid flow's books at the end of the run, in engine
        #: order (empty for a pure-packet run).
        self.fluid_flows: List[FlowBooks] = []
        #: The fluid bottleneck's books (``None`` for a pure-packet run).
        self.fluid_link: Optional[LinkBooks] = None


def _percentile(values: List[float], fraction: float) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def run_scale_experiment(
    arm: ScaleArm,
    streams: int = 100,
    duration: float = 8.0,
    seed: int = 1,
    fluid: bool = True,
    bottleneck_bps: float = SCALE_BOTTLENECK_BPS,
    cross_traffic_bps: float = SCALE_CROSS_TRAFFIC_BPS,
    tenants: int = SCALE_TENANTS,
    deadline: float = DEADLINE,
    fault_plan=None,
    checks=None,
    tracer=None,
) -> ScaleResult:
    """Run N offered streams through one arm, hybrid or pure packet.

    ``fluid=False`` packet-simulates every stream (the validation
    ground truth; only sensible at N <= a few hundred).  ``fluid=True``
    packet-simulates ``MEASURED_PER_CLASS`` streams per class and
    models the rest as fluid aggregates.
    """
    if streams < 1:
        raise ValueError(f"need at least one stream, got {streams}")
    bed = Testbed(seed, checks, tracer)
    kernel = bed.kernel
    n = int(streams)

    # --- topology: like fig 9, but the access fabric is provisioned so
    # the shared bottleneck is the only contended resource at any N.
    access_bps = max(1e9, 2.0 * n * RESERVE_BPS)
    load_bps = max(100e6, 2.0 * cross_traffic_bps)
    bottleneck = bed.star(
        {"src": access_bps, "dst": bottleneck_bps, "load": load_bps},
        dst="dst", default_bps=access_bps, band_capacity=BAND_CAPACITY,
        intserv_bound=UTILIZATION_BOUND)
    net = bed.network
    bed.av_endpoints(("src", "dst"))  # for the measured cohort

    # --- admission with per-tenant pools ------------------------------
    controller = AdmissionController(net)
    pool = bottleneck_bps * UTILIZATION_BOUND / max(1, tenants)
    for j in range(max(1, tenants)):
        controller.set_tenant_pool(f"t{j}", pool)

    admitted_idx = (_admit_population(controller, arm, n, max(1, tenants))
                    if arm.admission else [])
    admitted_set = set(admitted_idx)

    def plan_of(i: int) -> StreamPlan:
        """Stream ``i``'s plan; no encode thread (CPU is out of scope)."""
        admitted = i in admitted_set
        corba = (BASE_CORBA_PRIORITY - (i % 1024) * (LANE_STEP // 5)
                 if admitted else None)
        return (_stream_name(i), corba, admitted, None,
                arm.policy(corba, admitted))

    # --- split the population: measured packet cohort vs fluid bulk ---
    if fluid:
        first_rejected = islice(
            (i for i in range(n) if i not in admitted_set),
            MEASURED_PER_CLASS)
        measured_idx = sorted(
            admitted_idx[:MEASURED_PER_CLASS] + list(first_rejected))
    else:
        measured_idx = list(range(n))
    measured_plan = [plan_of(i) for i in measured_idx]

    # --- fluid engine: one cohort flow per run of one class -----------
    engine: Optional[FluidEngine] = None
    if fluid:
        engine = FluidEngine(kernel, quantum=1e-3)
        fl_bott = engine.attach_interface(
            "router->dst", bottleneck.a,
            queue_bytes=BAND_CAPACITY * MEAN_FRAGMENT_BYTES)
        for _name, _corba, admitted, _thread, _policy in measured_plan:
            fl_bott.register_packet_load(WIRE_RATE_BPS, reserved=admitted)
        for first, reserved, members in _class_runs(
                n, admitted_idx, set(measured_idx)):
            engine.add_flow(
                f"{_stream_name(first)}x{members}", WIRE_RATE_BPS, [fl_bott],
                reserved=reserved,
                adaptive=arm.adaptation and not reserved,
                members=members, deadline=deadline)
        if cross_traffic_bps > 0:
            engine.add_flow("cross", cross_traffic_bps, [fl_bott])
    elif cross_traffic_bps > 0:
        cross = CbrTrafficSource(kernel, net.nic_of("load"), "dst",
                                 cross_traffic_bps, dscp=Dscp.BE)
        cross.start()

    # --- bind the measured cohort, then start the shared clock --------
    result = ScaleResult(arm, n, duration, deadline, fluid, max(1, tenants))
    bed.watch(fluid=engine)
    bed.inject(fault_plan)
    farm = start_farm(bed, "scale-driver", measured_plan, result,
                      arm.adaptation, 0.0)
    result.events_executed = bed.run(until=duration)

    # --- capture: measured rows ---------------------------------------
    result.measured_rows = stop_farm(farm, measured_plan, result)

    # --- capture: per-class aggregates over the whole population ------
    # A cohort's per-member values are booked ``members`` times in a
    # row, which is the sum one flow per stream would have produced.
    wire_frame_bytes = WIRE_RATE_BPS / 8.0 / VIDEO_FPS
    for admitted in (True, False):
        count = 0
        fps_sum = 0.0
        fps_min = float("inf")
        offered = served = lost = on_time_generated = generated_total = 0.0
        latency_sum = 0.0
        latencies: List[float] = []
        for row in result.measured_rows:
            if row.admitted != admitted:
                continue
            count += 1
            fps_sum += row.fps
            fps_min = min(fps_min, row.fps)
            offered += row.sent
            served += row.delivered
            lost += row.sent - row.delivered
            generated_total += row.generated
            on_time_generated += row.on_time
            latency_sum += row.mean_latency
            if row.delivered:
                latencies.append(row.mean_latency)
        measured_count = count
        if engine is not None:
            for flow in engine.flows():
                if flow.name == "cross" or flow.reserved != admitted:
                    continue
                members = flow.members
                count += members
                active = flow.active_seconds or duration
                fps = (flow.served_bytes / wire_frame_bytes / active
                       if active > 0 else 0.0)
                fps_sum = add_repeated(fps_sum, fps, members)
                fps_min = min(fps_min, fps)
                if flow.offered_bytes > 0:
                    offered = add_repeated(
                        offered, flow.offered_bytes / wire_frame_bytes,
                        members)
                    served = add_repeated(
                        served, flow.served_bytes / wire_frame_bytes,
                        members)
                    lost = add_repeated(
                        lost, flow.lost_bytes / wire_frame_bytes, members)
                    nominal = flow.offered_bytes + flow.shed_bytes
                    generated_total = add_repeated(
                        generated_total, nominal / wire_frame_bytes, members)
                    on_time_generated = add_repeated(
                        on_time_generated,
                        flow.served_on_time_bytes / wire_frame_bytes,
                        members)
                latency_sum = add_repeated(
                    latency_sum, flow.mean_latency, members)
        if count == 0:
            stats = None
        else:
            stats = ScaleClassStats(
                count=count,
                measured=measured_count,
                mean_fps=fps_sum / count,
                min_fps=fps_min,
                loss_rate=lost / offered if offered > 0 else 0.0,
                miss_rate=(1.0 - on_time_generated / generated_total
                           if generated_total > 0 else 0.0),
                mean_latency=latency_sum / count,
                p95_latency=_percentile(latencies, 0.95),
            )
        if admitted:
            result.admitted_stats = stats
        else:
            result.best_effort_stats = stats

    result.admitted_count = len(admitted_idx)
    for j in range(max(1, tenants)):
        tenant = f"t{j}"
        result.tenant_books[tenant] = (
            controller.tenant_committed(tenant),
            controller.tenant_pool(tenant))
    result.requests_rejected = controller.requests_rejected
    result.bottleneck_committed_bps = controller.committed(bottleneck.a)
    if engine is not None:
        result.fluid_epochs = engine.epochs
        result.governor_transitions = engine.governor_transitions
        result.fluid_flows = [
            FlowBooks(flow.name, flow.reserved, flow.members,
                      flow.offered_bytes, flow.served_bytes, flow.lost_bytes)
            for flow in engine.flows()]
        result.fluid_link = LinkBooks(
            fl_bott.name, fl_bott.be_share, fl_bott.offered_bytes,
            fl_bott.served_bytes, fl_bott.lost_bytes)
        engine.close()
    return result


# ----------------------------------------------------------------------
# Rendering and claims
# ----------------------------------------------------------------------
def render_fig10_scale(sweeps: "Dict[str, List[ScaleResult]]") -> str:
    """The fig 10 text figure: one table per arm + tenant isolation recap."""
    def fps(stats: Optional[ScaleClassStats]) -> str:
        return f"{stats.mean_fps:.2f}" if stats else "-"

    def pct(stats: Optional[ScaleClassStats], field: str) -> str:
        return f"{getattr(stats, field) * 100:.1f}%" if stats else "-"

    sections = []
    overload: Optional[ScaleResult] = None
    for arm_name, results in sweeps.items():
        rows = []
        for result in results:
            adm = result.admitted_stats
            be = result.best_effort_stats
            rows.append((
                result.streams,
                result.admitted_count,
                fps(adm),
                pct(adm, "miss_rate"),
                fps(be),
                pct(be, "loss_rate"),
                pct(be, "miss_rate"),
                result.fluid_epochs,
                result.events_executed,
            ))
            if arm_name == "overload":
                overload = result
        table = render_table(
            ("streams", "admitted", "adm fps", "adm miss",
             "b/e fps", "b/e loss", "b/e miss", "epochs", "events"),
            rows)
        sections.append(f"Fig 10 — hybrid scale sweep — {arm_name}\n{table}")

    if overload is not None:
        lines = [f"tenant isolation under overload (N={overload.streams}, "
                 f"tenant 0 floods {overload.streams // 2} streams):"]
        for tenant, (committed, pool) in sorted(overload.tenant_books.items()):
            cap = f"{pool / 1e6:.1f}" if pool is not None else "-"
            lines.append(
                f"  {tenant}: committed {committed / 1e6:>7.1f} / "
                f"{cap} Mbps pool")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


#: Per-tenant reserve pool at the fig 10 defaults...
TENANT_POOL_BPS = SCALE_BOTTLENECK_BPS * UTILIZATION_BOUND / SCALE_TENANTS
#: ...and the admissions that fit in it / in the whole bottleneck.
PER_TENANT_CAP = int(TENANT_POOL_BPS / RESERVE_BPS)
SATURATION_ADMITTED = PER_TENANT_CAP * SCALE_TENANTS

_ADMITTING_ARMS = ("reserves", "adaptive", "overload")


_at = sweep_lookup("streams")


def _books_within_budget(point: ScaleResult) -> bool:
    """Neither the bottleneck's nor any tenant's books overflow."""
    return (point.bottleneck_committed_bps
            <= SCALE_BOTTLENECK_BPS * UTILIZATION_BOUND + 1e-3
            and all(committed <= pool + 1e-3
                    for committed, pool in point.tenant_books.values()))


def _victims_admitted_in_full(storm: ScaleResult) -> bool:
    """The flooding tenant exhausts exactly its own pool while the
    other tenants' requests (500 over 3 tenants at N=1000, all below
    their caps) are admitted in full."""
    t0_committed, t0_pool = storm.tenant_books["t0"]
    victims = sum(committed for tenant, (committed, _pool)
                  in storm.tenant_books.items() if tenant != "t0")
    return (t0_committed >= t0_pool - RESERVE_BPS
            and victims == (storm.streams - storm.streams // 2) * RESERVE_BPS)


FIG10_CLAIMS = (
    Claim("the sweep spans 10^2..10^5 streams",
          lambda runs: sorted(point.streams for point in runs["reserves"])
          == [100, 1000, 10_000, 100_000]),
    Claim("admission holds the admitted class at contracted rate through "
          "five orders of magnitude of load",
          lambda runs: all(point.admitted_stats.mean_fps >= 0.9 * VIDEO_FPS
                           and point.admitted_stats.miss_rate < 0.1
                           for arm in _ADMITTING_ARMS
                           for point in runs[arm])),
    Claim("the books never overflow the bottleneck or any tenant pool",
          lambda runs: all(_books_within_budget(point)
                           for arm in _ADMITTING_ARMS
                           for point in runs[arm])),
    Claim("past the knee the admitted count pins to the pools",
          lambda runs: _at(runs, "reserves", 100).admitted_count == 100
          and _at(runs, "reserves", 100_000).admitted_count
          == SATURATION_ADMITTED),
    Claim("without admission, best effort collapses at the top of the sweep",
          lambda runs: _at(runs, "best-effort", 100_000).best_effort_stats
          .mean_fps < 0.1 * VIDEO_FPS
          and _at(runs, "best-effort", 100_000).best_effort_stats
          .loss_rate > 0.9),
    Claim("...but the uncontended bottom of the sweep is healthy",
          lambda runs: _at(runs, "best-effort", 100).best_effort_stats
          .mean_fps > 0.9 * VIDEO_FPS),
    Claim("adaptation sheds the rejected class: less offered, so a smaller "
          "lost fraction",
          lambda runs: _at(runs, "adaptive", 100_000).governor_transitions > 0
          and _at(runs, "adaptive", 100_000).best_effort_stats.loss_rate
          <= _at(runs, "reserves", 100_000).best_effort_stats.loss_rate
          + 1e-9),
    Claim("a flooding tenant cannot displace anyone else's admissions",
          lambda runs: _victims_admitted_in_full(_at(runs, "overload", 1000))),
    Claim("hybrid event counts grow sub-linearly: 1000x the offered load "
          "costs under 10x the events",
          lambda runs: all(
              _at(runs, arm, 100_000).events_executed
              < 10 * _at(runs, arm, 100).events_executed
              and _at(runs, arm, 100_000).fluid_epochs >= 1
              for arm in runs)),
)
