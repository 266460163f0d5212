"""Section 5.2: network-reservation experiments (Fig 7, Table 1).

Testbed: a video sender and receiver joined by 10 Mbps Ethernet
segments through a router, plus a load host.  "The video sender sent
MPEG-1 video (approximately 1.2 Mbps for 30 fps) for 300 seconds.  60
seconds into this, an extra 43.8 Mbps network load was generated for
60 seconds, then discontinued."

Six arms — every combination the paper ran:

1. no frame filtering, no reservation
2. no frame filtering, partial reservation (670 Kbps)
3. no frame filtering, full reservation
4. frame filtering, no reservation
5. frame filtering, partial reservation
6. frame filtering, full reservation

Reservations are attached during A/V stream setup (RSVP PATH/RESV
through every router); frame filtering is the QuO contract of
:class:`repro.core.adaptation.FrameFilteringQosket` reacting to
observed loss by dropping to 10 or 2 fps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.process import Process
from repro.net.traffic import CbrTrafficSource
from repro.core.metrics import DeliveryRecorder
from repro.core.policies import QosPolicy
from repro.experiments.arm import Arm, StreamResult
from repro.experiments.testbed import Testbed
from repro.obs.breakdown import SeriesStats

#: The paper's reservation levels.
FULL_RESERVATION_BPS = 1.3e6  # "1.2 Mbps, enough to support 30 fps"
#: (sized with ~8% headroom for per-packet IP overhead and coder jitter)
PARTIAL_RESERVATION_BPS = 670e3
#: Token-bucket depth: ~2.5 I-frames of burst tolerance.
BUCKET_BYTES = 40_000
#: "10 Mbps Ethernet segments", "an extra 43.8 Mbps network load".
LINK_BPS = 10e6
LOAD_RATE_BPS = 43.8e6


@dataclass
class NetworkArm(Arm):
    """One of the six {reservation} x {filtering} combinations."""

    name: str
    reservation: Optional[str]
    filtering: bool

    def __post_init__(self) -> None:
        if self.reservation not in (None, "partial", "full"):
            raise ValueError(
                f"unknown reservation level: {self.reservation!r}")

    def policy(self) -> QosPolicy:
        """The stream's point: a mandatory RSVP reservation at the
        arm's level, or nothing (filtering is QuO's, not the matrix's)."""
        if self.reservation is None:
            return QosPolicy()
        rate = (FULL_RESERVATION_BPS if self.reservation == "full"
                else PARTIAL_RESERVATION_BPS)
        return QosPolicy(reservation=QosPolicy.flow(rate, BUCKET_BYTES))


def all_arms() -> list:
    """The paper's six experiment combinations, in its numbering."""
    return [
        NetworkArm("1-none", None, False),
        NetworkArm("2-partial", "partial", False),
        NetworkArm("3-full", "full", False),
        NetworkArm("4-none-filtering", None, True),
        NetworkArm("5-partial-filtering", "partial", True),
        NetworkArm("6-full-filtering", "full", True),
    ]


class NetworkExperimentResult(StreamResult):
    """Everything Table 1 and Fig 7 need for one arm."""

    def __init__(self, arm: NetworkArm, load_start: float,
                 load_end: float, duration: float) -> None:
        super().__init__(arm, duration)
        self.load_start = load_start
        self.load_end = load_end
        #: The pair's one recorder again: the latency columns read it
        #: under the receiver's name.
        self.receiver_delivery: Optional[DeliveryRecorder] = None
        #: Frames received inside the load window, by type.
        self.typed_received_under_load: Dict[str, int] = {}

    def capture(self, sender, receiver, events_executed: int) -> None:
        super().capture(sender, receiver, events_executed)
        self.receiver_delivery = self.sender_delivery
        for time, frame_type in zip(self.receiver_delivery.received.times,
                                    receiver.frame_types):
            if self.load_start <= time < self.load_end:
                self.typed_received_under_load[frame_type] = (
                    self.typed_received_under_load.get(frame_type, 0) + 1)

    # -- Table 1 columns ----------------------------------------------------
    def delivered_fraction_under_load(self) -> float:
        return self.sender_delivery.delivery_fraction(
            self.load_start, self.load_end
        )

    def latency_under_load(self) -> SeriesStats:
        return self.receiver_delivery.latency.stats(
            self.load_start, self.load_end
        )

    def jitter_under_load(self) -> SeriesStats:
        """Inter-arrival jitter of delivered frames during the burst."""
        return self.receiver_delivery.interarrival_jitter(
            self.load_start, self.load_end
        )

    def i_frames_delivered_under_load(self) -> float:
        """Fraction of I frames sent under load that arrived.

        Not tracked per-type on send; approximated via receiver type
        counts windowed by the receive series (adequate because the
        sender emits I frames at a constant 2 fps).
        """
        sent_i = 2.0 * (self.load_end - self.load_start)
        got_i = self.typed_received_under_load.get("I", 0)
        return min(1.0, got_i / sent_i) if sent_i else 1.0


def run_network_reservation_experiment(
    arm: NetworkArm,
    duration: float = 300.0,
    load_start: float = 60.0,
    load_end: float = 120.0,
    seed: int = 1,
    fault_plan=None,
    checks=None,
    tracer=None,
) -> NetworkExperimentResult:
    """Build the section 5.2 network testbed and run one arm."""
    bed = Testbed(seed, checks, tracer)
    kernel = bed.kernel

    # --- network: every egress on the path is IntServ-capable.  The load
    # host gets a fast access segment so its full 43.8 Mbps reaches the
    # bottleneck, as in the paper's measurement.
    bed.star({"src": None, "dst": None, "load": 100e6}, dst="dst",
             default_bps=LINK_BPS, intserv_bound=0.9)
    bed.av_endpoints(("src", "dst"))
    bed.watch()

    result = NetworkExperimentResult(arm, load_start, load_end, duration)

    # --- stream setup + actors, inside a driver process ---------------------
    sender = receiver = None

    def driver():
        nonlocal sender, receiver
        # A 4 % degrade threshold makes the contract keep shedding
        # until important frames stop being lost — the paper's
        # policy delivered *all* I frames under partial reservation.
        sender, receiver = yield from bed.open_stream(
            "uav-video", arm.policy(), bed.rng.stream("video"),
            degrade_threshold=0.04 if arm.filtering else None)
        sender.start()

    Process(kernel, driver(), name="experiment-driver")

    # --- the load burst ------------------------------------------------------
    load_source = CbrTrafficSource(
        kernel, bed.network.nic_of("load"), "dst", rate_bps=LOAD_RATE_BPS
    )
    kernel.schedule(load_start, load_source.start)
    kernel.schedule(load_end, load_source.stop)
    bed.inject(fault_plan)

    events = bed.run(until=duration)
    result.capture(sender, receiver, events)
    return result
