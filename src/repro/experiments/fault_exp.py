"""Fault-injection experiment: frame delivery through injected faults.

The new results figure (fig 8): the section 5.2 video pipeline is run
through a gauntlet of injected faults — a bandwidth collapse, a hard
link flap, a correlated loss burst, and a router crash-and-restart —
once without any adaptation and once with the QuO frame-filtering
contract wired to a :class:`~repro.quo.syscond.FaultReporterSC`.

The adaptation story mirrors the paper's: when the bottleneck
degrades, an unmanaged 30 fps / 1.2 Mbps stream swamps it and almost
every frame loses at least one fragment, while the adaptive arm sheds
to 2 fps I-frames that fit the surviving capacity and keep arriving.
After the last fault clears, both arms return to full rate — the
"operating through" claim, now under five distinct failure shapes.

Every fault is driven by a JSON-able :class:`~repro.faults.FaultPlan`
riding in the RunSpec parameters, so chaos arms are cached and
byte-reproducible at any worker count like every other scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.process import Process
from repro.core.policies import QosPolicy
from repro.experiments.arm import Arm, StreamResult
from repro.experiments.testbed import Testbed
from repro.quo.syscond import FaultReporterSC


#: The section 5.2 testbed's 10 Mbps segments.
LINK_BPS = 10e6


@dataclass
class FaultArm(Arm):
    """One chaos arm: the same faults, with or without adaptation."""

    name: str
    adaptive: bool

    def policy(self) -> QosPolicy:
        """Best effort in both arms: fig 8 separates them by QuO
        adaptation alone."""
        return QosPolicy()


def all_arms() -> list:
    return [FaultArm("static", False), FaultArm("adaptive", True)]


def default_fault_plan(duration: float = 120.0) -> List[Dict[str, Any]]:
    """The canonical fig 8 fault timeline, scaled to ``duration``.

    Windows are placed at fixed fractions of the run so the same
    shape works for the full figure and for short CI smoke runs; the
    final quarter of the run is fault-free recovery time.
    """
    def w(a: float, b: float) -> Tuple[float, float]:
        start = round(duration * a, 1)
        return start, round(duration * b - start, 1)

    # The bandwidth collapse is the long, headline fault — the regime
    # where shedding to I-frames-only keeps frames flowing while the
    # unmanaged stream drowns the bottleneck queue.  The flap, loss
    # burst and crash are short punctuations; the final ~15 % of the
    # run is fault-free so both arms can demonstrate recovery.
    degrade_at, degrade_for = w(0.125, 0.700)
    flap_at, flap_for = w(0.733, 0.758)
    burst_at, burst_for = w(0.775, 0.804)
    crash_at, crash_for = w(0.833, 0.858)
    return [
        {"kind": "link_degrade", "link": ["router", "dst"],
         "at": degrade_at, "duration": degrade_for, "factor": 0.03},
        {"kind": "link_flap", "link": ["router", "dst"],
         "at": flap_at, "duration": flap_for},
        {"kind": "loss_burst", "link": ["router", "dst"],
         "at": burst_at, "duration": burst_for, "loss": 0.45},
        {"kind": "node_crash", "node": "router",
         "at": crash_at, "duration": crash_for},
    ]


class FaultExperimentResult(StreamResult):
    """Everything fig 8 needs for one arm."""

    def __init__(self, arm: FaultArm, duration: float,
                 fault_windows: Sequence[Tuple[str, float, float]]) -> None:
        super().__init__(arm, duration)
        #: (label, start, end) per injected fault.
        self.fault_windows = list(fault_windows)
        #: Fault windows the reporter saw (adaptive arm only).
        self.faults_reported = 0

    # -- figure metrics -------------------------------------------------
    @property
    def faulted_span(self) -> Tuple[float, float]:
        """First fault onset to last fault clearance (empty, at the end
        of the run, when the plan was ``[]``)."""
        return (min((s for _, s, _ in self.fault_windows),
                    default=self.duration),
                max((e for _, _, e in self.fault_windows),
                    default=self.duration))

    def recovery_rate_fps(self, settle: float = 5.0) -> float:
        """Delivered frame rate from after the post-fault settle to
        the end of the run."""
        return self.delivered_fps(self.faulted_span[1] + settle,
                                  self.duration)

    def delivered_in_fault_windows(self) -> int:
        """Frames delivered while some fault was actually active."""
        return sum(row[4] for row in self.per_window_counts())

    def sent_in_fault_windows(self) -> int:
        return sum(row[3] for row in self.per_window_counts())

    def per_window_counts(self) -> List[Tuple[str, float, float, int, int]]:
        """(label, start, end, sent, delivered) per fault window."""
        return [
            (label, start, end,
             self.sender_delivery.sent_count(start, end),
             self.sender_delivery.received_count(start, end))
            for label, start, end in self.fault_windows
        ]


def run_fault_injection_experiment(
    arm: FaultArm,
    duration: float = 120.0,
    fault_plan: Optional[List[Dict[str, Any]]] = None,
    seed: int = 1,
    checks=None,
    tracer=None,
) -> FaultExperimentResult:
    """Run the video pipeline through ``fault_plan`` (default: the fig 8
    gauntlet, :func:`default_fault_plan`).

    ``fault_plan`` is a list of fault-event dicts
    (:meth:`repro.faults.FaultPlan.to_dicts` form) so it can travel
    inside RunSpec parameters.
    """
    bed = Testbed(seed, checks, tracer)
    kernel = bed.kernel

    # --- network: src -- router -- dst -------------------------------
    bed.star({"src": None, "dst": None}, dst="dst", default_bps=LINK_BPS)
    bed.av_endpoints(("src", "dst"))
    bed.watch()

    reporter = (FaultReporterSC(kernel, "injected-faults")
                if arm.adaptive else None)

    sender = receiver = None

    def driver():
        nonlocal sender, receiver
        sender, receiver = yield from bed.open_stream(
            "uav-video", arm.policy(), bed.rng.stream("video"),
            degrade_threshold=0.05 if arm.adaptive else None)
        if arm.adaptive:
            sender.qosket.attach_fault_reporter(reporter)
        sender.start()

    Process(kernel, driver(), name="fault-experiment-driver")

    # --- the faults: installed after the driver process (their ``seq``)
    plan = bed.inject(fault_plan, default_fault_plan(duration),
                      reporter=reporter, stream="faults")
    result = FaultExperimentResult(arm, duration, plan.windows())

    events = bed.run(until=duration)
    result.capture(sender, receiver, events)
    if reporter is not None:
        result.faults_reported = reporter.faults_seen
    return result
