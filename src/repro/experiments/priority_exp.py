"""Section 5.1: priority-based end-to-end QoS experiments (Figs 4-6).

Testbed (mirrors the paper's): four machines — a sender host running
two identical video-sender tasks (~1.2 Mbps of GIOP messages each), a
receiver host with two servants in two POAs, a DiffServ-capable
router, and a cross-traffic host.  The bottleneck is the router ->
receiver segment (10 Mbps); cross traffic is 16 Mbps of best-effort
UDP; sender-side CPU load is bursty and sits between the two senders'
managed thread priorities.

The five arms differ only in which mechanisms are enabled:

========  =================  ======  =========  =============
figure    thread priorities  DSCP    CPU load   cross traffic
========  =================  ======  =========  =============
Fig 4(a)  no                 no      no         no
Fig 4(b)  no                 no      no         yes
Fig 5(a)  yes                no      yes        no
Fig 5(b)  yes                no      yes        yes
Fig 6     yes                yes     yes        yes
========  =================  ======  =========  =============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.oskernel.loadgen import CpuLoadGenerator
from repro.oskernel.priorities import OsType
from repro.net.diffserv import Dscp
from repro.net.queues import DiffServQueue
from repro.net.traffic import CbrTrafficSource
from repro.sim.process import Process
from repro.orb.core import Orb, raise_if_error
from repro.orb.idl import compile_idl
from repro.orb.rt import (
    DscpMapping,
    PriorityBand,
    PriorityModel,
    TablePriorityMapping,
    ThreadPool,
)
from repro.media.mpeg import MpegStream
from repro.core.metrics import LatencyRecorder
from repro.core.policies import QosPolicy
from repro.experiments.actors import GiopVideoSender, VideoReceiverServant
from repro.experiments.arm import Arm, ArmResult
from repro.experiments.testbed import Testbed

#: CORBA priorities of the two sender tasks when managed.
HIGH_PRIORITY = 30000  # maps to DSCP EF under the default bands
LOW_PRIORITY = 8000  # maps to DSCP AF11

#: The unmanaged (control) native priority both senders share.
EQUAL_NATIVE_PRIORITY = 10

#: The section 5.1 testbed: ~1.2 Mbps per sender task, 10 Mbps segments
#: with the router -> receiver one the bottleneck, 16 Mbps of cross
#: traffic, and a bursty sender-side CPU load.
VIDEO_BITRATE_BPS = 1.2e6
ACCESS_BPS = 10e6
BOTTLENECK_BPS = 10e6
CROSS_RATE_BPS = 16e6
CPU_LOAD_DUTY = 0.85


@dataclass
class PriorityArm(Arm):
    """One experimental configuration."""

    name: str
    thread_priorities: bool = False
    dscp: bool = False
    cpu_load: bool = False
    cross_traffic: bool = False

    @classmethod
    def figure4a(cls) -> "PriorityArm":
        return cls("fig4a-control-idle")

    @classmethod
    def figure4b(cls) -> "PriorityArm":
        return cls("fig4b-control-congested", cross_traffic=True)

    @classmethod
    def figure5a(cls) -> "PriorityArm":
        return cls("fig5a-threads-cpuload",
                   thread_priorities=True, cpu_load=True)

    @classmethod
    def figure5b(cls) -> "PriorityArm":
        return cls("fig5b-threads-cpuload-congested",
                   thread_priorities=True, cpu_load=True, cross_traffic=True)

    @classmethod
    def figure6(cls) -> "PriorityArm":
        return cls("fig6-threads-dscp-congested",
                   thread_priorities=True, dscp=True,
                   cpu_load=True, cross_traffic=True)

    def policy(self, priority: int) -> QosPolicy:
        """A sender task's point: its CORBA ``priority`` when the arm
        manages priorities (figs 5-6), DSCP-marked on fig 6."""
        if not self.thread_priorities:
            return QosPolicy()
        return QosPolicy(priority, dscp=self.dscp)


class PriorityExperimentResult(ArmResult):
    """Latency recorders and config for one arm."""

    def __init__(self, arm: PriorityArm, duration: float) -> None:
        super().__init__(arm, duration)
        self.latency: Dict[str, LatencyRecorder] = {}
        self.frames_sent: Dict[str, int] = {}

    def series(self, sender: str, bin_width: float = 0.5):
        """Binned mean latency — the Fig 4-6 curves."""
        return self.latency[sender].series.binned(bin_width, "mean")

    def stats(self, sender: str):
        return self.latency[sender].stats()


def run_priority_experiment(
    arm: PriorityArm,
    duration: float = 30.0,
    seed: int = 1,
    fault_plan=None,
    checks=None,
    tracer=None,
) -> PriorityExperimentResult:
    """Build the section 5.1 testbed and run one arm.

    ``fault_plan``, ``checks`` and ``tracer`` mean what they mean on
    every scenario (:mod:`repro.experiments.testbed`): faults to inject
    (none by default), a :class:`~repro.check.invariants.CheckSuite` to
    run under, a :class:`repro.obs.Tracer` covering the whole run.
    """
    bed = Testbed(seed, checks, tracer)
    kernel, rng = bed.kernel, bed.rng

    # --- hosts and network -------------------------------------------------
    net = bed.build_network(ACCESS_BPS)
    sender_host = bed.host("sender", os_type=OsType.LINUX)
    receiver_host = bed.host("receiver", os_type=OsType.LINUX)
    cross_host = bed.host("crosshost", os_type=OsType.LINUX)
    router = net.add_router("router")
    net.link(sender_host, router)
    net.link(cross_host, router)
    # The bottleneck segment; its router-side egress is the
    # DiffServ-capable queue (all-BE traffic degenerates to FIFO, so
    # the control arms see exactly a best-effort router).
    net.link(
        router,
        receiver_host,
        bandwidth_bps=BOTTLENECK_BPS,
        qdisc_a=DiffServQueue(band_capacity=300, name="bottleneck"),
    )
    net.compute_routes()
    bed.watch()

    # --- ORBs ---------------------------------------------------------------
    sender_orb = Orb(kernel, sender_host, net)
    receiver_orb = Orb(kernel, receiver_host, net)

    # --- receiver: two servants in two POAs on a laned RT pool ---------------
    pool = ThreadPool(
        kernel,
        receiver_host,
        receiver_orb.mapping_manager,
        lanes=[(0, 1), (LOW_PRIORITY, 1), (HIGH_PRIORITY, 1)],
        name="video-pool",
    )
    servants = {}
    refs = {}
    for index in (1, 2):
        poa = receiver_orb.create_poa(
            f"video{index}",
            thread_pool=pool,
            priority_model=PriorityModel.CLIENT_PROPAGATED,
        )
        servant = VideoReceiverServant(kernel, name=f"sender{index}")
        servants[f"sender{index}"] = servant
        # Explicit oid: object-key byte length is wire timing, so the
        # key the figures were measured with is spelled out.
        refs[f"sender{index}"] = poa.activate_object(servant, oid="sink")

    # --- senders --------------------------------------------------------
    senders: Dict[str, GiopVideoSender] = {}
    priorities = {"sender1": HIGH_PRIORITY, "sender2": LOW_PRIORITY}
    for name in ("sender1", "sender2"):
        thread = sender_host.spawn_thread(
            name, priority=EQUAL_NATIVE_PRIORITY
        )
        stream = MpegStream(
            name,
            bitrate_bps=VIDEO_BITRATE_BPS,
            fps=30.0,
            rng=rng.stream(f"video.{name}"),
        )
        senders[name] = GiopVideoSender(
            kernel, sender_orb, refs[name], stream, thread)
        bed.qos.apply(arm.policy(priorities[name]), sender_host,
                      thread=thread, orb=sender_orb,
                      stub=senders[name].stub)

    # --- interference ----------------------------------------------------
    if arm.cpu_load:
        # Between the two managed native priorities: preempts the low
        # sender, is preempted by the high one (Fig 5's configuration).
        load = CpuLoadGenerator(
            kernel,
            sender_host,
            priority=50,
            duty_cycle=CPU_LOAD_DUTY,
            burst_mean=0.05,
            rng=rng.stream("cpuload"),
        )
        load.start()
    if arm.cross_traffic:
        cross = CbrTrafficSource(
            kernel,
            net.nic_of("crosshost"),
            "receiver",
            rate_bps=CROSS_RATE_BPS,
            dscp=Dscp.BE,
        )
        cross.start()

    # --- run ---------------------------------------------------------------
    # Half-a-frame stagger between the senders so their frames do not
    # collide at identical instants (two free-running encoders are
    # never phase-locked).
    senders["sender1"].start()
    kernel.schedule(
        senders["sender2"].stream.frame_interval / 2,
        senders["sender2"].start,
    )
    bed.inject(fault_plan)

    result = PriorityExperimentResult(arm, duration)
    result.events_executed = bed.run(until=duration)
    for name, servant in servants.items():
        result.latency[name] = servant.latency
        result.frames_sent[name] = senders[name].frames_sent
    return result


def all_arms() -> List[PriorityArm]:
    return [
        PriorityArm.figure4a(),
        PriorityArm.figure4b(),
        PriorityArm.figure5a(),
        PriorityArm.figure5b(),
        PriorityArm.figure6(),
    ]


# ----------------------------------------------------------------------
# Figure 2: one CORBA priority propagated across three operating systems
# ----------------------------------------------------------------------
class Figure2Mapping:
    """The custom per-OS native mapping the figure implies."""

    tables = {
        OsType.QNX: TablePriorityMapping([(0, 0), (100, 16), (200, 24)]),
        OsType.LYNXOS: TablePriorityMapping([(0, 0), (100, 128), (200, 192)]),
        OsType.SOLARIS: TablePriorityMapping([(0, 100), (100, 136), (200, 150)]),
        OsType.LINUX: TablePriorityMapping([(0, 1), (100, 50), (200, 99)]),
        OsType.TIMESYS_LINUX: TablePriorityMapping([(0, 1), (100, 50)]),
    }

    def to_native(self, corba_priority, os_type):
        return self.tables[os_type].to_native(corba_priority, os_type)


#: The chain's two servers: a relay that calls on, and a sink.
_FIG2_IDL = compile_idl("""
module Fig2 {
    interface Relay { long process(in long value); };
    interface Sink  { long compute(in long value); };
};
""")
RELAY, SINK = _FIG2_IDL["Fig2::Relay"], _FIG2_IDL["Fig2::Sink"]


class PropagationHop(NamedTuple):
    """One row of the Fig 2 chain: what one tier observed of the call."""

    host: str
    os_type: OsType
    role: str
    corba_priority: int
    native_priority: int
    dscp: Dscp


def run_priority_propagation(checks=None, tracer=None) -> Dict[str, Any]:
    """The Fig 2 chain, run: one call at RT-CORBA priority 100 from a
    QNX client through a LynxOS relay to a Solaris sink.

    Each tier's row is what the call did there: the CORBA priority it
    was dispatched at (the client's: its stub's), the native priority
    its thread had meanwhile, and the DSCP of the connection the call
    arrived on (the client's: the one it left on), which a server side
    mirrors from its peer's segments.  Returns ``{"hops": rows,
    "events": events executed}``."""
    bed = Testbed(checks=checks, tracer=tracer)
    net = bed.build_network()
    client = bed.host("client", os_type=OsType.QNX)
    middle = bed.host("middle-tier", os_type=OsType.LYNXOS)
    server = bed.host("server", os_type=OsType.SOLARIS)
    router1, router2 = net.add_router("router1"), net.add_router("router2")
    net.link(client, router1)
    net.link(router1, middle)
    net.link(router1, router2)
    net.link(router2, server)
    net.compute_routes()
    bed.watch()
    orbs = {}
    for host in (client, middle, server):
        orb = orbs[host.name] = Orb(bed.kernel, host, net)
        orb.mapping_manager.install_native_mapping(Figure2Mapping())
        orb.mapping_manager.install_dscp_mapping(DscpMapping(
            [PriorityBand(0, Dscp.BE), PriorityBand(100, Dscp.EF)]))
        orb.map_priority_to_dscp = True
    # host -> (CORBA priority, native priority) during the call.
    observed: Dict[str, Tuple[int, int]] = {}

    def dispatched(orb: Orb) -> Optional[int]:
        observed[orb.host.name] = (orb.current_priority,
                                   orb.current_dispatch_thread.priority)
        return orb.current_priority

    class SinkServant(SINK.skeleton_class):
        def compute(self, value):
            dispatched(orbs["server"])
            return value * 2

    sink = orbs["server"].create_poa("sink").activate_object(SinkServant())

    class RelayServant(RELAY.skeleton_class):
        """Calls on at the priority it was dispatched at."""

        def process(self, value):
            orb = orbs["middle-tier"]
            stub = SINK.stub_class(orb, sink, priority=dispatched(orb))
            return raise_if_error((yield stub.compute(value + 1)))

    relay = orbs["middle-tier"].create_poa("relay").activate_object(
        RelayServant())
    thread = client.spawn_thread("app")
    stub = RELAY.stub_class(orbs["client"], relay, thread=thread)
    bed.qos.apply(QosPolicy(100, dscp=True), client, thread=thread,
                  orb=orbs["client"], stub=stub)

    def app():
        observed["client"] = (stub.priority, thread.priority)
        raise_if_error((yield stub.process(20)))

    Process(bed.kernel, app(), name="fig2-app")
    events = bed.run()
    hops = []
    for host, role, peer in ((client, "client", middle),
                             (middle, "server", client),
                             (server, "server", middle)):
        dscp = next(c.dscp for c in orbs[host.name].connections()
                    if c.remote_host == peer.name)
        hops.append(PropagationHop(host.name, host.os_type, role,
                                   *observed[host.name], dscp))
    return {"hops": hops, "events": events}
