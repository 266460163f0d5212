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

from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.oskernel.host import Host
from repro.net.queues import GuaranteedRateQueue
from repro.net.topology import Network
from repro.net.traffic import CbrTrafficSource
from repro.orb.core import Orb
from repro.media.filtering import FrameFilter
from repro.media.mpeg import MpegStream
from repro.avstreams.service import MMDeviceServant, StreamCtrl, StreamQoS
from repro.core.adaptation import FrameFilteringQosket
from repro.core.metrics import DeliveryRecorder, SeriesStats
from repro.experiments.actors import AvVideoReceiver, AvVideoSender
from repro.experiments.arm import Arm

#: The paper's reservation levels.
FULL_RESERVATION_BPS = 1.3e6  # "1.2 Mbps, enough to support 30 fps"
#: (sized with ~8% headroom for per-packet IP overhead and coder jitter)
PARTIAL_RESERVATION_BPS = 670e3
#: Token-bucket depth: ~2.5 I-frames of burst tolerance.
BUCKET_BYTES = 40_000


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

    @property
    def reserve_rate_bps(self) -> Optional[float]:
        if self.reservation == "full":
            return FULL_RESERVATION_BPS
        if self.reservation == "partial":
            return PARTIAL_RESERVATION_BPS
        return None


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


class NetworkExperimentResult:
    """Everything Table 1 and Fig 7 need for one arm.

    The metrics live in snapshot recorders (plain time series) captured
    from the data-plane actors when the run finishes, so results pickle
    cleanly across the parallel runner's process boundary.  The live
    ``sender``/``receiver`` actors remain available in-process but are
    dropped on pickling (they reference the kernel and its callbacks).
    """

    def __init__(self, arm: NetworkArm, load_start: float,
                 load_end: float, duration: float) -> None:
        self.arm = arm
        self.load_start = load_start
        self.load_end = load_end
        self.duration = duration
        self.sender: Optional[AvVideoSender] = None
        self.receiver: Optional[AvVideoReceiver] = None
        self.sender_delivery: Optional[DeliveryRecorder] = None
        self.receiver_delivery: Optional[DeliveryRecorder] = None
        self.receiver_frames_by_type: Dict[str, int] = {}
        #: Kernel event count for the run (throughput observability).
        self.events_executed = 0

    def capture(self, events_executed: int) -> None:
        """Snapshot the picklable metrics out of the live actors."""
        self.sender_delivery = self.sender.delivery
        self.receiver_delivery = self.receiver.delivery
        self.receiver_frames_by_type = dict(self.receiver.frames_by_type)
        self.events_executed = events_executed

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["sender"] = None
        state["receiver"] = None
        return state

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

    # -- Fig 7 curves ---------------------------------------------------------
    def cumulative_counts(self, bin_width: float = 5.0):
        return self.sender_delivery.cumulative_counts(
            bin_width, self.duration
        )

    def frames_by_type(self) -> Dict[str, int]:
        return dict(self.receiver_frames_by_type)

    def i_frames_delivered_under_load(self) -> float:
        """Fraction of I frames sent under load that arrived.

        Not tracked per-type on send; approximated via receiver type
        counts windowed by the receive series (adequate because the
        sender emits I frames at a constant 2 fps).
        """
        sent_i = 2.0 * (self.load_end - self.load_start)
        got_i = self._typed_received_under_load("I")
        return min(1.0, got_i / sent_i) if sent_i else 1.0

    def _typed_received_under_load(self, frame_type: str) -> int:
        return self._typed_counts_under_load.get(frame_type, 0)

    #: Populated by the runner.
    _typed_counts_under_load: Dict[str, int] = {}


def run_network_reservation_experiment(
    arm: NetworkArm,
    duration: float = 300.0,
    load_start: float = 60.0,
    load_end: float = 120.0,
    load_rate_bps: float = 43.8e6,
    link_bps: float = 10e6,
    video_bitrate_bps: float = 1.2e6,
    seed: int = 1,
) -> NetworkExperimentResult:
    """Build the section 5.2 network testbed and run one arm."""
    kernel = Kernel()
    rng = RngRegistry(seed=seed)

    # --- network: every egress on the path is IntServ-capable ------------
    net = Network(kernel, default_bandwidth_bps=link_bps)
    hosts = {}
    for name in ("src", "dst", "load"):
        hosts[name] = Host(kernel, name)
        net.attach_host(hosts[name])
    router = net.add_router("router")

    def q(name):
        return GuaranteedRateQueue(kernel, band_capacity=200, name=name)

    net.link("src", router, qdisc_a=q("src-out"), qdisc_b=q("rtr-to-src"))
    # The load host gets a fast access segment so its full 43.8 Mbps
    # reaches the bottleneck, as in the paper's measurement.
    net.link("load", router, bandwidth_bps=100e6,
             qdisc_a=q("load-out"), qdisc_b=q("rtr-to-load"))
    net.link(router, "dst", qdisc_a=q("bottleneck"), qdisc_b=q("dst-out"))
    net.compute_routes()
    net.enable_intserv()

    # --- ORBs + A/V devices ------------------------------------------------
    orbs = {name: Orb(kernel, hosts[name], net) for name in ("src", "dst")}
    devices = {}
    refs = {}
    for name, orb in orbs.items():
        device = MMDeviceServant(kernel, orb)
        poa = orb.create_poa("av")
        devices[name] = device
        refs[name] = poa.activate_object(device, oid="mmdevice")

    result = NetworkExperimentResult(arm, load_start, load_end, duration)
    typed_under_load: Dict[str, int] = {}

    # --- stream setup + actors, inside a driver process ---------------------
    ctrl = StreamCtrl(kernel, orbs["src"])

    def driver():
        qos = StreamQoS(
            reserve_rate_bps=arm.reserve_rate_bps,
            bucket_bytes=BUCKET_BYTES,
            mandatory=True,
        ) if arm.reserve_rate_bps else StreamQoS()
        yield from ctrl.bind("uav-video", refs["src"], refs["dst"], qos)
        producer = devices["src"].producer("uav-video")
        consumer = devices["dst"].consumer("uav-video")
        stream = MpegStream(
            "uav-video",
            bitrate_bps=video_bitrate_bps,
            fps=30.0,
            rng=rng.stream("video"),
        )
        frame_filter = None
        qosket = None
        if arm.filtering:
            frame_filter = FrameFilter()
            # A 4 % degrade threshold makes the contract keep shedding
            # until important frames stop being lost — the paper's
            # policy delivered *all* I frames under partial reservation.
            qosket = FrameFilteringQosket(
                kernel, frame_filter, degrade_threshold=0.04
            )
        sender = AvVideoSender(
            kernel, producer, stream,
            frame_filter=frame_filter, qosket=qosket,
        )
        receiver = AvVideoReceiver(kernel, consumer, sender=sender)

        # Count received frames by type inside the load window.
        original = receiver._on_frame

        def on_frame(frame, latency):
            original(frame, latency)
            if load_start <= kernel.now < load_end:
                key = frame.frame_type.value
                typed_under_load[key] = typed_under_load.get(key, 0) + 1

        consumer.on_frame = on_frame
        result.sender = sender
        result.receiver = receiver
        sender.start()

    Process(kernel, driver(), name="experiment-driver")

    # --- the load burst ------------------------------------------------------
    load_source = CbrTrafficSource(
        kernel, net.nic_of("load"), "dst", rate_bps=load_rate_bps
    )
    kernel.schedule(load_start, load_source.start)
    kernel.schedule(load_end, load_source.stop)

    kernel.run(until=duration)
    if result.sender is None:
        raise RuntimeError(
            f"stream setup failed for arm {arm.name!r} "
            "(reservation not admitted?)"
        )
    result.sender.stop()
    result._typed_counts_under_load = typed_under_load
    result.capture(kernel.events_executed)
    return result
