"""The one testbed under every scenario.

Every scenario function builds its world on a :class:`Testbed`, so what
they share is written once: the kernel lifecycle, the star topology, the
A/V endpoints, the stream bring-up, fault installation and the invariant
suite's install / teardown.  Scenarios differ in *workload*.

The lifecycle has one order (DESIGN section 4 gives the reasons):
``Testbed(seed, checks, tracer)`` attaches the tracer before anything is
built; the scenario builds its topology; :meth:`Testbed.watch` installs
the suite before the first packet is sent; :meth:`Testbed.inject`
installs faults where the scenario's ``schedule`` order needs them;
:meth:`Testbed.run` runs, finalizes, checks and uninstalls the suite.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, Iterable, Optional, Sequence

from repro.sim.coalesce import PeriodicTicker
from repro.sim.kernel import Kernel
from repro.sim.rng import RngRegistry
from repro.oskernel.host import Host
from repro.oskernel.thread import SimThread
from repro.net.link import Link
from repro.net.queues import GuaranteedRateQueue
from repro.net.topology import Network
from repro.orb.core import Orb
from repro.orb.ior import ObjectReference
from repro.media.filtering import FrameFilter
from repro.media.mpeg import MpegStream
from repro.avstreams.service import MMDeviceServant, StreamCtrl
from repro.core.adaptation import FrameFilteringQosket
from repro.core.manager import EndToEndQoSManager
from repro.core.policies import QosPolicy
from repro.check.world import World
from repro.experiments.actors import AvVideoReceiver, AvVideoSender
from repro.faults import FaultInjector, FaultPlan

__all__ = ["Testbed"]


class Testbed:
    """One simulated world under construction, then under observation.

    ``checks`` is an optional :class:`~repro.check.invariants.CheckSuite`
    installed by :meth:`watch`; ``tracer`` an optional
    :class:`~repro.obs.Tracer`.  Neither changes a result (see
    ``tests/experiments/test_testbed.py``).
    """

    def __init__(self, seed: int = 0, checks=None, tracer=None) -> None:
        self.kernel = Kernel()
        if tracer is not None:
            tracer.attach(self.kernel)
        self.rng = RngRegistry(seed=seed)
        self.checks = checks
        self.network: Optional[Network] = None
        self.hosts: Dict[str, Host] = {}
        #: Per-host A/V plumbing, filled by :meth:`av_endpoints`.
        self.orbs: Dict[str, Orb] = {}
        self.devices: Dict[str, MMDeviceServant] = {}
        self.refs: Dict[str, ObjectReference] = {}
        #: What the suite inspects; exists once :meth:`watch` has run.
        self.world: Optional[World] = None
        #: Applies every arm's :class:`~repro.core.policies.QosPolicy`.
        self.qos = EndToEndQoSManager()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def build_network(self, default_bandwidth_bps: float = 10e6) -> Network:
        self.network = Network(
            self.kernel, default_bandwidth_bps=default_bandwidth_bps)
        return self.network

    def host(self, name: str, **kwargs: Any) -> Host:
        """A host on this kernel, attached to the network if there is one."""
        host = self.hosts[name] = Host(self.kernel, name, **kwargs)
        if self.network is not None:
            self.network.attach_host(host)
        return host

    def queue(self, name: str = "intserv",
              band_capacity: int = 200) -> GuaranteedRateQueue:
        """An IntServ-capable egress queue (``name`` is for the debugger)."""
        return GuaranteedRateQueue(self.kernel, band_capacity, name=name)

    def star(self, links: Dict[str, Optional[float]], dst: str,
             default_bps: float, band_capacity: int = 200,
             intserv_bound: Optional[float] = None) -> Link:
        """Hosts around one ``router``, every egress IntServ-capable.

        ``links`` maps host name to its link's bandwidth (``None``:
        ``default_bps``) in attach order; ``dst``'s entry is the
        bottleneck ``router -> dst``, wired last and returned.  With an
        ``intserv_bound`` RSVP agents are enabled at that utilization.
        """
        net = self.build_network(default_bps)
        for name in links:
            self.host(name)
        router = net.add_router("router")

        def q(name: str) -> GuaranteedRateQueue:
            return self.queue(name, band_capacity)

        for name, bandwidth_bps in links.items():
            if name != dst:
                net.link(name, router, bandwidth_bps=bandwidth_bps,
                         qdisc_a=q(f"{name}-out"), qdisc_b=q(f"rtr-to-{name}"))
        bottleneck = net.link(router, dst, bandwidth_bps=links[dst],
                              qdisc_a=q("bottleneck"), qdisc_b=q(f"{dst}-out"))
        net.compute_routes()
        if intserv_bound is not None:
            net.enable_intserv(utilization_bound=intserv_bound)
        return bottleneck

    # ------------------------------------------------------------------
    # A/V endpoints and stream bring-up
    # ------------------------------------------------------------------
    def av_endpoints(self, names: Iterable[str]) -> None:
        """One ORB per named host, each serving an ``MMDevice`` from POA
        ``av``; fills :attr:`orbs`, :attr:`devices` and :attr:`refs`."""
        for name in names:
            orb = self.orbs[name] = Orb(
                self.kernel, self.hosts[name], self.network)
            device = self.devices[name] = MMDeviceServant(self.kernel, orb)
            # Explicit oid: object-key length is wire timing, so the
            # key the figures were measured with is spelled out.
            self.refs[name] = orb.create_poa("av").activate_object(
                device, oid="mmdevice")

    def open_stream(
        self,
        name: str,
        policy: QosPolicy,
        rng: random.Random,
        degrade_threshold: Optional[float] = None,
        qosket_name: str = "frame-filtering",
        thread: Optional[SimThread] = None,
        encode_cost: float = 0.0,
        deadline: Optional[float] = None,
        clock: Optional[PeriodicTicker] = None,
    ) -> Generator:
        """Bind flow ``name`` from ``src`` to ``dst`` and build its actors
        round the paper's stream (~1.2 Mbps at 30 fps, the
        :class:`~repro.media.mpeg.MpegStream` defaults).

        A generator for use inside a driver process:
        ``sender, receiver = yield from bed.open_stream(...)``.  The
        flow gets ``policy``'s network cells through :attr:`qos`.  With a
        ``degrade_threshold`` the sender runs the QuO frame-filtering
        contract, which is handed to the watched world so its
        object-level teardown laws are checked.  ``thread``,
        ``encode_cost`` and ``clock`` are the
        :class:`~repro.experiments.actors.AvVideoSender`'s, ``deadline``
        the receiver's; the caller starts the sender.
        """
        ctrl = StreamCtrl(self.kernel, self.orbs["src"])
        yield from self.qos.open_stream(name, policy, ctrl, self.refs["src"],
                                        self.refs["dst"])
        producer = self.devices["src"].producer(name)
        consumer = self.devices["dst"].consumer(name)
        stream = MpegStream(name, rng=rng)
        frame_filter = None
        qosket = None
        if degrade_threshold is not None:
            frame_filter = FrameFilter()
            qosket = FrameFilteringQosket(
                self.kernel, frame_filter, name=qosket_name,
                degrade_threshold=degrade_threshold)
            self.world.add_contract(qosket.contract)
        sender = AvVideoSender(
            self.kernel, producer, stream, frame_filter=frame_filter,
            qosket=qosket, thread=thread, encode_cost=encode_cost,
            clock=clock)
        return sender, AvVideoReceiver(self.kernel, consumer, sender,
                                       deadline=deadline)

    # ------------------------------------------------------------------
    # Watch, fault, run
    # ------------------------------------------------------------------
    def watch(self, **parts: Any) -> None:
        """Describe the built world and install the suite over it.

        Call it after the topology exists (checkers snapshot the queues
        at install) and **before the first packet is sent**: a packet
        whose enqueue the suite missed is an illegal life-cycle
        transition at its dequeue, and the ECN ablation sends while it
        builds.  ``parts`` are the :class:`~repro.check.world.World`
        members the scenario adds to the network and hosts:
        ``contracts``, ``fluid``, ``routing``, ``pubsub``.
        """
        self.world = World(self.kernel, network=self.network,
                           hosts=list(self.hosts.values()), **parts)
        if self.checks is not None:
            self.checks.install(self.world)

    def inject(self, fault_plan: Optional[Sequence[Dict[str, Any]]],
               canonical: Sequence[Dict[str, Any]] = (),
               reporter=None, stream: str = "fault-injector") -> FaultPlan:
        """Install the run's faults *now*; returns the plan installed,
        index targets resolved to names.

        One meaning of ``fault_plan`` everywhere: ``None`` is the
        scenario's ``canonical`` plan, a list *replaces* it, ``[]`` is a
        fault-free run.  A fault event's tie-breaking ``seq`` is fixed
        here, so where a scenario calls this among its other
        ``schedule`` calls is part of its figure.  ``stream`` names the
        RNG stream loss bursts draw from: fig 8 has always drawn from
        ``"faults"`` and the rest from ``"fault-injector"``, and
        renaming either moves a results file.
        """
        return FaultInjector(
            self.kernel, self.network, reporter=reporter,
            rng=self.rng.stream(stream)).install(FaultPlan.from_dicts(
                canonical if fault_plan is None else fault_plan))

    def run(self, until: Optional[float] = None) -> int:
        """Run the watched world to ``until``; returns events executed.

        The suite is uninstalled afterwards, raise or not, so a tracer
        the caller reuses does not carry this run's checkers into the
        next one; the suite's counters stay readable."""
        try:
            self.kernel.run(until=until)
            if self.world.fluid is not None:
                self.world.fluid.finalize()
            if self.checks is not None:
                self.checks.final_check()
        finally:
            if self.checks is not None:
                self.checks.uninstall()
        return self.kernel.events_executed
