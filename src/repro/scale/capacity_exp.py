"""Fig 9: multi-stream capacity sweep behind reserve-based admission.

The paper's evaluation protects *one* video stream; its claim — that
priorities, reservations and QuO adaptation compose to protect QoS
under contention — is only stressed when many streams compete for the
same CPU and links.  This experiment stands up N concurrent MPEG
sender/receiver pairs on the section 5 topology and sweeps N across
four arms:

``best-effort``
    No mechanisms: every stream is DSCP BE at the bottom native thread
    priority, competing with cross traffic and a CPU load generator.
``priority``
    Per-stream RT-CORBA priority lanes: each stream gets its own CORBA
    priority, mapped to a native encode-thread priority and a DiffServ
    codepoint (section 5.1's mechanisms).  Streams beat the background
    load but not each other, so the arm still collapses once aggregate
    demand crosses the bottleneck.
``reserves``
    Priority lanes plus an :class:`~repro.scale.admission.AdmissionController`:
    each stream asks for a CPU reserve (utilization-bound test, then a
    HARD reserve from :class:`~repro.oskernel.reserve.ReserveManager`)
    and an RSVP reservation (link-budget test, then a mandatory
    reservation through :mod:`repro.net.intserv`).  Rejected streams
    fall back to best-effort.
``adaptive``
    Reserves plus QuO: every rejected stream runs a
    :class:`~repro.core.adaptation.FrameFilteringQosket`, shedding to
    the frame rate that fits the leftover capacity instead of drowning
    the bottleneck.

Delivered fps and deadline-miss rate per stream class make the fig 9
capacity curve: admission holds admitted-stream QoS flat while the
best-effort arms collapse.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.coalesce import PeriodicTicker
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.oskernel.loadgen import CpuLoadGenerator
from repro.oskernel.reserve import EnforcementPolicy
from repro.net.diffserv import Dscp
from repro.net.traffic import CbrTrafficSource
from repro.core.policies import QosPolicy
from repro.experiments.actors import AvVideoReceiver, AvVideoSender
from repro.experiments.arm import Arm, ArmResult, Claim, sweep_lookup
from repro.experiments.testbed import Testbed
from repro.scale.admission import AdmissionController

#: Nominal per-stream video parameters (the paper's 1.2 Mbps / 30 fps).
VIDEO_BITRATE_BPS = 1.2e6
VIDEO_FPS = 30.0
#: Reservation per admitted stream: nominal rate plus fragmentation
#: overhead and jitter headroom (matches the section 5.2 full arm).
RESERVE_BPS = 1.3e6
RESERVE_BUCKET_BYTES = 40_000
#: CPU-seconds to encode one frame on the sender host.
ENCODE_COST = 0.002
#: Reserve headroom over the raw encode cost (C = cost * headroom).
ENCODE_RESERVE_HEADROOM = 1.5
#: An admitted stream's (C, T) encode reserve: one frame per period.
ENCODE_RESERVE = (ENCODE_COST * ENCODE_RESERVE_HEADROOM, 1.0 / VIDEO_FPS)
#: Topology: fast access links into one 10 Mbps bottleneck.
ACCESS_BPS = 1e9
LOAD_LINK_BPS = 100e6
BOTTLENECK_BPS = 10e6
#: Background contention on the shared path and the shared sender CPU.
CROSS_TRAFFIC_BPS = 4e6
CPU_LOAD_DUTY = 0.35
CPU_LOAD_PRIORITY = 50
UTILIZATION_BOUND = 0.9
#: A frame delivered later than this after generation missed its deadline.
DEADLINE = 0.25
#: Per-stream RT-CORBA lanes step down from here (all land in the EF
#: band of the default DSCP mapping; earlier streams get the stronger
#: native priority).
BASE_CORBA_PRIORITY = 32000
LANE_STEP = 25


@dataclass
class CapacityArm(Arm):
    """One fig 9 arm: which mechanisms the farm turns on."""

    name: str
    priorities: bool = False
    admission: bool = False
    adaptation: bool = False

    def policy(self, corba: Optional[int], admitted: bool) -> QosPolicy:
        """A stream's point given its CORBA lane and admission verdict.

        The priority arm's lanes are priority + DSCP; an admitted
        stream adds a HARD encode reserve and a mandatory RSVP
        reservation; a rejected one falls back to best effort.
        """
        if admitted:
            return QosPolicy(
                corba, dscp=True, cpu=ENCODE_RESERVE,
                enforcement=EnforcementPolicy.HARD,
                reservation=QosPolicy.flow(RESERVE_BPS, RESERVE_BUCKET_BYTES))
        if self.priorities and not self.admission:
            return QosPolicy(corba, dscp=True)
        return QosPolicy()


def all_arms() -> List[CapacityArm]:
    return [
        CapacityArm("best-effort"),
        CapacityArm("priority", priorities=True),
        CapacityArm("reserves", priorities=True, admission=True),
        CapacityArm("adaptive", priorities=True, admission=True,
                    adaptation=True),
    ]


def fig9_stream_counts() -> List[int]:
    """The canonical N sweep: 1..64 streams, geometric."""
    return [1, 2, 4, 8, 16, 32, 64]


#: Per-stream outcome row; plain data so payload bytes are stable.
StreamRow = namedtuple("StreamRow", [
    "name",            # stream id
    "admitted",        # bool: holds a CPU reserve + RSVP reservation
    "corba_priority",  # int lane, or None in the best-effort arm
    "generated",       # frames produced by the MPEG model
    "filtered",        # frames shed by the QuO contract
    "skipped",         # frames dropped at the drowning encoder
    "sent",            # frames that actually left the producer
    "delivered",       # frames fully reassembled at the receiver
    "on_time",         # delivered within the deadline
    "fps",             # delivered / measurement window
    "miss_rate",       # 1 - on_time / generated
    "mean_latency",    # mean delivery latency (s), 0.0 if none arrived
])


class CapacityResult(ArmResult):
    """Everything fig 9 needs for one (arm, N) point."""

    def __init__(self, arm: CapacityArm, streams: int, duration: float,
                 deadline: float) -> None:
        super().__init__(arm, duration)
        self.streams = int(streams)
        self.deadline = float(deadline)
        #: Simulated time at which every stream was bound and the
        #: shared frame clock started; fps is measured from here.
        self.measure_start = 0.0
        self.rows: List[StreamRow] = []
        self.admitted_count = 0
        self.clock_ticks = 0
        #: Controller books after all admissions (src host / bottleneck).
        self.cpu_utilization = 0.0
        self.bottleneck_committed_bps = 0.0

    # -- figure metrics -------------------------------------------------
    @property
    def rejected_count(self) -> int:
        return self.streams - self.admitted_count

    def class_rows(self, admitted: Optional[bool] = None) -> List[StreamRow]:
        if admitted is None:
            return list(self.rows)
        return [row for row in self.rows if row.admitted == admitted]

    def mean_fps(self, admitted: Optional[bool] = None) -> float:
        rows = self.class_rows(admitted)
        if not rows:
            return 0.0
        return sum(row.fps for row in rows) / len(rows)

    def min_fps(self, admitted: Optional[bool] = None) -> float:
        rows = self.class_rows(admitted)
        if not rows:
            return 0.0
        return min(row.fps for row in rows)

    def mean_miss_rate(self, admitted: Optional[bool] = None) -> float:
        rows = self.class_rows(admitted)
        if not rows:
            return 0.0
        return sum(row.miss_rate for row in rows) / len(rows)

    def total(self, field: str) -> int:
        return sum(getattr(row, field) for row in self.rows)


def stream_rng(registry: RngRegistry, stream_name: str) -> random.Random:
    """The farm's per-stream RNG convention.

    Every stream draws frame-size jitter from its own named stream, so
    adding or removing streams never perturbs the draws any other
    stream sees (the RNG-independence guarantee the farm's determinism
    rests on).
    """
    return registry.stream(f"video:{stream_name}")


#: One planned farm stream: (name, CORBA lane or None, admitted, encode
#: thread or None, QosPolicy).
StreamPlan = Tuple[str, Optional[int], bool, object, QosPolicy]


def start_farm(bed: Testbed, process_name: str, plans: Sequence[StreamPlan],
               result, adaptation: bool, encode_cost: float):
    """Spawn the driver process both farms (figs 9 and 10) run.

    It binds every planned stream in order — a rejected stream of an
    adaptive arm gets a frame-filtering qosket — then stamps
    ``result.measure_start`` and starts the one shared frame clock.
    Returns the farm ``(clock, senders, receivers)`` for
    :func:`stop_farm`; the lists fill as streams bind.
    """
    clock = PeriodicTicker(bed.kernel, 1.0 / VIDEO_FPS)
    senders: List[AvVideoSender] = []
    receivers: List[AvVideoReceiver] = []

    def driver():
        for name, _corba, admitted, thread, policy in plans:
            sender, receiver = yield from bed.open_stream(
                name, policy, stream_rng(bed.rng, name),
                degrade_threshold=(0.05 if adaptation and not admitted
                                   else None),
                qosket_name=f"qosket:{name}", thread=thread,
                encode_cost=encode_cost, deadline=result.deadline,
                clock=clock)
            senders.append(sender)
            receivers.append(receiver)
            sender.start()
        result.measure_start = bed.kernel.now
        clock.start()

    Process(bed.kernel, driver(), name=process_name)
    return clock, senders, receivers


def stop_farm(farm, plans: Sequence[StreamPlan], result) -> List[StreamRow]:
    """Stop every sender; returns one :class:`StreamRow` per stream over
    the window since ``result.measure_start``."""
    clock, senders, receivers = farm
    if len(senders) != len(plans):
        raise RuntimeError(
            f"stream setup failed for arm {result.arm.name!r}: "
            f"{len(senders)}/{len(plans)} streams bound")
    window = result.duration - result.measure_start
    rows = []
    for sender, receiver, (name, corba, admitted, _t, _q) in zip(
            senders, receivers, plans):
        sender.stop()
        delivered = sender.delivery.received_count()
        generated = sender.frames_generated
        frame_filter = sender.frame_filter
        rows.append(StreamRow(
            name=name,
            admitted=admitted,
            corba_priority=corba,
            generated=generated,
            filtered=(0 if frame_filter is None
                      else frame_filter.frames_filtered),
            skipped=sender.frames_skipped,
            sent=sender.delivery.sent_count(),
            delivered=delivered,
            on_time=receiver.frames_on_time,
            fps=delivered / window if window > 0 else 0.0,
            miss_rate=(1.0 - receiver.frames_on_time / generated
                       if generated else 0.0),
            mean_latency=(receiver.latency.stats().mean
                          if delivered else 0.0),
        ))
    result.clock_ticks = clock.ticks
    return rows


def run_capacity_experiment(
    arm: CapacityArm,
    streams: int = 8,
    duration: float = 12.0,
    seed: int = 1,
    bottleneck_bps: float = BOTTLENECK_BPS,
    cross_traffic_bps: float = CROSS_TRAFFIC_BPS,
    deadline: float = DEADLINE,
    fault_plan: Optional[Sequence[dict]] = None,
    checks=None,
    tracer=None,
) -> CapacityResult:
    """Run N concurrent streams through one arm's mechanisms.

    ``fault_plan`` optionally injects faults (dicts accepted by
    :meth:`~repro.faults.plan.FaultPlan.from_dicts`), ``checks``
    optionally installs a :class:`~repro.check.invariants.CheckSuite`
    over the run and ``tracer`` traces it — all default off and leave
    the baseline byte-identical.
    """
    if streams < 1:
        raise ValueError(f"need at least one stream, got {streams}")
    bed = Testbed(seed, checks, tracer)
    kernel = bed.kernel
    n = int(streams)

    # --- shared topology: src/load -- router -- dst -------------------
    bottleneck = bed.star(
        {"src": ACCESS_BPS, "dst": bottleneck_bps, "load": LOAD_LINK_BPS},
        dst="dst", default_bps=ACCESS_BPS, intserv_bound=UTILIZATION_BOUND)
    net = bed.network
    bed.inject(fault_plan)
    bed.av_endpoints(("src", "dst"))

    # --- admission: the controller reads the enforcement layers -------
    controller = AdmissionController(net)
    src_host, src_orb = bed.hosts["src"], bed.orbs["src"]

    plans: List[StreamPlan] = []
    for i in range(n):
        name = f"cap{i:02d}"
        corba = (BASE_CORBA_PRIORITY - i * LANE_STEP
                 if arm.priorities else None)
        admitted = False
        if arm.admission:
            decision = controller.request(
                name, src="src", dst="dst", rate_bps=RESERVE_BPS,
                cpu={"src": ENCODE_RESERVE})
            admitted = decision.admitted
        policy = arm.policy(corba, admitted)
        # The encode thread is spawned at its lane's native priority.
        # An admitted stream's reserve cannot fail: the controller's
        # books apply the same bounds the enforcement layers do.
        thread = src_host.spawn_thread(
            f"enc-{name}",
            priority=bed.qos.native_priority(policy, src_host, src_orb))
        bed.qos.apply(policy, src_host, thread=thread, orb=src_orb)
        plans.append((name, corba, admitted, thread, policy))

    # --- background contention ---------------------------------------
    if cross_traffic_bps > 0:
        cross = CbrTrafficSource(kernel, net.nic_of("load"), "dst",
                                 cross_traffic_bps, dscp=Dscp.BE)
        cross.start()
    loadgen = CpuLoadGenerator(kernel, src_host, priority=CPU_LOAD_PRIORITY,
                               duty_cycle=CPU_LOAD_DUTY,
                               rng=bed.rng.stream("cpu-load"))
    loadgen.start()

    # --- bind every stream, then start the shared clock ---------------
    result = CapacityResult(arm, n, duration, deadline)
    bed.watch()
    farm = start_farm(bed, "capacity-driver", plans, result, arm.adaptation,
                      ENCODE_COST)
    result.events_executed = bed.run(until=duration)

    # --- capture -------------------------------------------------------
    result.rows = stop_farm(farm, plans, result)
    result.admitted_count = sum(1 for row in result.rows if row.admitted)
    result.cpu_utilization = controller.cpu_utilization("src")
    result.bottleneck_committed_bps = controller.committed(bottleneck.a)
    return result


# ----------------------------------------------------------------------
# Rendering and claims
# ----------------------------------------------------------------------
def render_fig9_capacity(
        sweeps: "Dict[str, List[CapacityResult]]") -> str:
    """The fig 9 text figure: one table per arm plus a saturation recap.

    ``sweeps`` maps arm name to its results ordered by stream count.
    """
    from repro.experiments.reporting import render_table

    def fmt(value: float) -> str:
        return f"{value:.2f}"

    sections = []
    for arm_name, results in sweeps.items():
        rows = []
        for result in results:
            protected = result.class_rows(True)
            unprotected = result.class_rows(False)
            rows.append((
                result.streams,
                result.admitted_count,
                fmt(result.mean_fps(True)) if protected else "-",
                (f"{result.mean_miss_rate(True) * 100:.1f}%"
                 if protected else "-"),
                fmt(result.mean_fps(False)) if unprotected else "-",
                (f"{result.mean_miss_rate(False) * 100:.1f}%"
                 if unprotected else "-"),
                result.total("delivered"),
                result.total("sent"),
            ))
        table = render_table(
            ("streams", "admitted", "adm fps", "adm miss",
             "b/e fps", "b/e miss", "delivered", "sent"),
            rows)
        sections.append(f"Fig 9 — capacity sweep — {arm_name}\n{table}")

    # Saturation recap at the largest common N.
    common = None
    for results in sweeps.values():
        counts = {result.streams for result in results}
        common = counts if common is None else common & counts
    if common:
        peak = max(common)
        lines = [f"saturation recap (N={peak}, nominal "
                 f"{VIDEO_FPS:.0f} fps/stream):"]
        for arm_name, results in sweeps.items():
            at_peak = next(r for r in results if r.streams == peak)
            if at_peak.admitted_count:
                lines.append(
                    f"  {arm_name:<12} admitted {at_peak.admitted_count:>2}: "
                    f"mean {at_peak.mean_fps(True):.2f} fps "
                    f"(min {at_peak.min_fps(True):.2f}); "
                    f"rejected {at_peak.rejected_count:>2}: "
                    f"mean {at_peak.mean_fps(False):.2f} fps")
            else:
                lines.append(
                    f"  {arm_name:<12} all {at_peak.streams} best-effort: "
                    f"mean {at_peak.mean_fps(False):.2f} fps, "
                    f"miss {at_peak.mean_miss_rate(False) * 100:.1f}%")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


#: Streams the 10 Mb/s bottleneck can carry at the 0.9 RSVP bound.
SATURATION_ADMITTED = int(10e6 * UTILIZATION_BOUND / RESERVE_BPS)


_at = sweep_lookup("streams")


def _rejected_sent(result: CapacityResult) -> int:
    return sum(row.sent for row in result.class_rows(False))


def _admission_holds(peak: CapacityResult) -> bool:
    return (peak.admitted_count == SATURATION_ADMITTED
            and peak.min_fps(True) >= 0.9 * VIDEO_FPS
            and peak.mean_miss_rate(True) < 0.1)


FIG9_CLAIMS = (
    Claim("uncontended, every arm delivers the nominal 30 fps",
          lambda runs: all(_at(runs, arm, 1).mean_fps() > 0.9 * VIDEO_FPS
                           for arm in runs)),
    Claim("without admission the sweep collapses: at N=64 best effort runs "
          "far below half nominal and nearly every frame misses its deadline",
          lambda runs: _at(runs, "best-effort", 64).mean_fps()
          < 0.5 * VIDEO_FPS
          and _at(runs, "best-effort", 64).mean_miss_rate() > 0.9),
    Claim("priority lanes beat the background load at moderate N",
          lambda runs: _at(runs, "priority", 8).mean_fps()
          > _at(runs, "best-effort", 8).mean_fps()),
    Claim("...but cannot beat each other, so they collapse at saturation",
          lambda runs: _at(runs, "priority", 64).mean_fps()
          < 0.5 * VIDEO_FPS),
    Claim("admission control admits exactly the streams the bottleneck "
          "budget carries and holds each at >= 90% of contracted rate at "
          "N=64",
          lambda runs: all(_admission_holds(_at(runs, arm, 64))
                           for arm in ("reserves", "adaptive"))),
    Claim("below the admission knee everything is admitted",
          lambda runs: all(_at(runs, arm, 4).admitted_count == 4
                           for arm in ("reserves", "adaptive"))),
    Claim("QuO adaptation sheds the rejected class to what fits the "
          "leftover capacity instead of blasting full rate",
          lambda runs: _rejected_sent(_at(runs, "adaptive", 16))
          < 0.5 * _rejected_sent(_at(runs, "reserves", 16))
          and _at(runs, "adaptive", 16).total("filtered") > 0),
    Claim("even at N=64 shedding never sends more than blind streaming",
          lambda runs: _rejected_sent(_at(runs, "adaptive", 64))
          < _rejected_sent(_at(runs, "reserves", 64))),
    Claim("the admission books match the physics at saturation",
          lambda runs: _at(runs, "reserves", 64).bottleneck_committed_bps
          <= 10e6 * UTILIZATION_BOUND + 1e-6
          and _at(runs, "reserves", 64).bottleneck_committed_bps
          == _at(runs, "reserves", 64).admitted_count * RESERVE_BPS),
)
