"""Interfaces and point-to-point links.

An :class:`Interface` is one device's attachment to a link: it owns the
egress queue discipline and a transmitter that serializes packets at
the link bandwidth.  A :class:`Link` wires two interfaces together with
a propagation delay, giving a full-duplex point-to-point segment (each
direction has its own queue and transmitter, like real Ethernet).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Optional

from repro.sim.kernel import Kernel
from repro.net.packet import Packet
from repro.net.queues import FifoQueue, QueueDiscipline

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Device


class Interface:
    """A device port: egress qdisc + transmitter onto one link direction.

    It keeps no traffic books: its ``hop.dequeue`` / ``hop.rx`` records
    say what it sent and received (DESIGN §13).  Only ``Network.link``
    builds one, and links both ends before it returns.
    """

    __slots__ = ("kernel", "owner", "name", "label", "qdisc", "link",
                 "peer", "_busy", "_tx_event", "_rx_ring", "_rx_next",
                 "_wire", "fluid")

    def __init__(
        self,
        kernel: Kernel,
        owner: "Device",
        name: str,
        qdisc: Optional[QueueDiscipline] = None,
    ) -> None:
        self.kernel = kernel
        self.owner = owner
        self.name = name
        #: ``"device.iface"``: how trace records, ``World.qdiscs()`` and
        #: checker messages name this port (the one definition).
        self.label = f"{owner.name}.{name}"
        self.qdisc = qdisc if qdisc is not None else FifoQueue()
        self.link: Optional["Link"] = None
        self.peer: Optional["Interface"] = None
        self._busy = False
        #: The transmitter's completion event, built on first use and
        #: re-armed in place per packet (at most one transmission is in
        #: flight per interface, so the handle has fired whenever the
        #: transmitter is idle).
        self._tx_event = None
        #: The peer's delivery events, one per frame on the wire at
        #: once, built on first use; ``_rx_next`` indexes the oldest.
        #: Frames cross one wire in the order they were sent, so the
        #: oldest handle is always the next to fire (DESIGN §13).
        self._rx_ring = None
        self._rx_next = 0
        #: The frames on the wire, oldest first: every delivery event's
        #: one argument, so a fired handle holds no frame.
        self._wire = None
        #: Hybrid-mode coupling: a :class:`repro.fluid.engine.FluidLink`
        #: whose aggregate consumes part of this egress; when set, the
        #: transmitter serializes at the fluid residual rate instead of
        #: the raw link bandwidth.  None everywhere except opt-in
        #: hybrid scenarios, so the packet-only path is untouched.
        self.fluid = None

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission; False if tail-dropped."""
        accepted = self.qdisc.enqueue(packet)
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant(
                "net", "hop.enqueue" if accepted else "hop.drop",
                flow=packet.flow_id,
                fields={"packet": packet.packet_id, "iface": self.label,
                        "dscp": packet.dscp._name_,
                        "depth": len(self.qdisc)},
            )
        if accepted and not self._busy:
            self._kick()
        return accepted

    def _kick(self) -> None:
        # The transmitter is idle: ``send`` and ``_transmit_done`` call
        # here only then, and ``Link.restore`` tests ``_busy`` itself.
        link = self.link
        if not link.up:
            # The transmitter idles while the link is down; restore()
            # kicks it again.  Queued packets survive the outage.
            return
        packet = self.qdisc.dequeue()
        if packet is None:
            # Only ``Link.restore`` kicks without knowing a frame waits.
            return
        self._busy = True
        if self.fluid is not None:
            tx_seconds = packet.size_bits / self.fluid.packet_residual_bps
        else:
            tx_seconds = packet.size_bits / link.bandwidth_bps
        kernel = self.kernel
        tracer = kernel.tracer
        if tracer is not None:
            tracer.instant(
                "net", "hop.dequeue",
                flow=packet.flow_id,
                fields={"packet": packet.packet_id, "iface": self.label,
                        "dscp": packet.dscp._name_, "tx": tx_seconds},
            )
        event = self._tx_event
        if event is None:
            self._tx_event = kernel.schedule(
                tx_seconds, self._transmit_done, packet)
        else:
            # Re-armed in place (sim/kernel.py, "Re-arming in place"):
            # the transmitter was idle, so its handle has fired.
            seq = kernel._seq
            kernel._seq = seq + 1
            event.args = (packet,)
            event._kernel = kernel
            heappush(kernel._heap, (kernel.now + tx_seconds, seq, event))

    def _transmit_done(self, packet: Packet) -> None:
        self._busy = False
        link = self.link
        # Common case first: link up, no injected loss.
        if ((link.up and not link.loss_probability)
                or not self._lost_on_wire(link, packet)):
            kernel = self.kernel
            ring = self._rx_ring
            if ring is None:
                wire = self._wire = [packet]
                self._rx_ring = [kernel.schedule(
                    link.delay, self.peer._deliver, wire)]
            else:
                self._wire.append(packet)
                i = self._rx_next
                event = ring[i]
                if event._kernel is None:
                    # The oldest delivery has fired: re-arm it in place
                    # as the newest.
                    seq = kernel._seq
                    kernel._seq = seq + 1
                    event._kernel = kernel
                    heappush(kernel._heap,
                             (kernel.now + link.delay, seq, event))
                    i += 1
                    self._rx_next = 0 if i == len(ring) else i
                else:
                    # Every frame on this wire is still in flight: one
                    # more handle, placed as the newest.
                    ring.insert(i, kernel.schedule(
                        link.delay, self.peer._deliver, self._wire))
                    self._rx_next = i + 1
        # Wake the transmitter only if its books hold a frame (they
        # equal ``len(qdisc)``; QdiscAccountingChecker holds them so).
        qdisc = self.qdisc
        if qdisc.enqueued != qdisc.dequeued:
            self._kick()

    def _lost_on_wire(self, link: "Link", packet: Packet) -> bool:
        """The rare ends of a transmission: the link died under the
        frame, or an injected loss burst (fault plan) holds the link and
        its RNG says this frame made it onto the wire but not across."""
        if not link.up:
            extra = {}
        elif (link.loss_rng is not None
                and link.loss_rng.random() < link.loss_probability):
            extra = {"reason": "burst"}
        else:
            return False
        link.packets_lost += 1
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant(
                "net", "hop.loss",
                flow=packet.flow_id,
                fields={"packet": packet.packet_id, "iface": self.label,
                        **extra},
            )
        return True

    def _deliver(self, wire: list) -> None:
        # The peer's oldest frame on the wire is the one arriving now.
        packet = wire.pop(0)
        packet.hops += 1
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant(
                "net", "hop.rx",
                flow=packet.flow_id,
                fields={"packet": packet.packet_id, "iface": self.label,
                        "dscp": packet.dscp._name_, "hops": packet.hops},
            )
        self.owner.receive(packet, self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Interface {self.label}>"


class Link:
    """A full-duplex point-to-point link between two interfaces.

    Parameters
    ----------
    bandwidth_bps:
        Serialization rate in bits per second (e.g. ``10e6`` for the
        paper's 10 Mbps Ethernet).
    delay:
        One-way propagation delay in seconds.
    """

    __slots__ = ("kernel", "bandwidth_bps", "nominal_bandwidth_bps",
                 "delay", "a", "b", "up",
                 "packets_lost", "loss_probability", "loss_rng",
                 "listeners")

    def __init__(
        self,
        kernel: Kernel,
        a: Interface,
        b: Interface,
        bandwidth_bps: float,
        delay: float = 50e-6,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.kernel = kernel
        self.bandwidth_bps = float(bandwidth_bps)
        #: As-built rate: admission decisions were made against this;
        #: fault-layer degrades mutate ``bandwidth_bps`` only.
        self.nominal_bandwidth_bps = float(bandwidth_bps)
        self.delay = float(delay)
        self.a = a
        self.b = b
        #: Failure-injection state; see :meth:`fail` / :meth:`restore`.
        self.up = True
        #: Packets lost on the wire while the link was down.
        self.packets_lost = 0
        #: Injected per-packet loss (fault layer); active only while a
        #: loss-burst fault holds the link.  Draws come from a named
        #: RNG stream so runs stay deterministic.
        self.loss_probability = 0.0
        self.loss_rng = None
        #: State-change callbacks ``cb(link, up)``; fired on every
        #: up -> down and down -> up transition.  The link-state
        #: routing protocol subscribes here to learn about adjacency
        #: changes the way a real router learns from carrier loss.
        self.listeners = []
        a.link = self
        b.link = self
        a.peer = b
        b.peer = a

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def add_listener(self, callback) -> None:
        """Subscribe ``callback(link, up)`` to state transitions."""
        self.listeners.append(callback)

    def fail(self) -> None:
        """Cut the link: everything currently on (or put on) the wire
        is lost until :meth:`restore`.  Queued packets stay queued."""
        was_up = self.up
        self.up = False
        if self.a.fluid is not None:
            self.a.fluid.on_link_state(False)
        if self.b.fluid is not None:
            self.b.fluid.on_link_state(False)
        # Release any installed reservation rate on the dead egresses
        # *synchronously*: nothing expires, so the booked rate would
        # otherwise over-report for good and the link-budget ledger
        # could go negative on re-admission after reroute.
        for iface in (self.a, self.b):
            agent = getattr(iface.owner, "rsvp_agent", None)
            if agent is not None:
                agent.on_link_down(iface)
        if was_up:
            for callback in self.listeners:
                callback(self, False)

    def restore(self) -> None:
        """Bring the link back and restart both transmitters."""
        if self.up:
            return
        self.up = True
        if self.a.fluid is not None:
            self.a.fluid.on_link_state(True)
        if self.b.fluid is not None:
            self.b.fluid.on_link_state(True)
        for iface in (self.a, self.b):
            if not iface._busy:
                iface._kick()
        for callback in self.listeners:
            callback(self, True)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Link {self.a.owner.name}<->{self.b.owner.name} "
            f"{self.bandwidth_bps/1e6:.1f}Mbps>"
        )
