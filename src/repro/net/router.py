"""Store-and-forward routers.

A router forwards packets by destination host name using a routing
table computed by :class:`repro.net.topology.Network`.  Two behaviours
beyond plain forwarding matter for the paper:

* **DiffServ** — the router does not mark or reorder itself; its egress
  interfaces are configured with :class:`~repro.net.queues.DiffServQueue`
  (or plain FIFO for the non-DiffServ control arms).  Whether the
  "router machine" honours DSCPs is purely a queue-discipline choice,
  exactly as in the testbed.

* **RSVP interception** — PATH/RESV signaling packets are addressed to
  the flow endpoints but must be processed hop-by-hop (router alert).
  The router hands them to its :class:`~repro.net.intserv.RsvpAgent`,
  which performs admission control and installs token buckets on the
  egress :class:`~repro.net.queues.GuaranteedRateQueue`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.sim.kernel import Kernel
from repro.net.link import Interface
from repro.net.packet import RSVP, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.intserv import RsvpAgent


class Router:
    """A packet forwarder with per-destination routing.

    Interfaces are created by :class:`repro.net.topology.Network` when
    links are wired; the routing table maps destination host names to
    egress interfaces.
    """

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.interfaces: Dict[str, Interface] = {}
        self.routes: Dict[str, Interface] = {}
        #: Packets dropped for lack of a route.
        self.unroutable = 0
        #: Drop book, shaped like the qdisc one so conservation
        #: harnesses can fold router drops into the same
        #: delivered / dropped-with-reason / in-flight partition.
        self.dropped = 0
        self.drops_by_reason: Dict[str, int] = {}
        self.drops_by_flow: Dict[str, int] = {}
        #: Optional drop hook ``on_drop(packet, reason)``.
        self.on_drop: Optional[Callable[[Packet, str], None]] = None
        #: RSVP agent; installed by the Network when IntServ is enabled.
        self.rsvp_agent: Optional["RsvpAgent"] = None

    # ------------------------------------------------------------------
    def add_interface(self, interface: Interface) -> None:
        self.interfaces[interface.name] = interface

    def egress_for(self, destination: str) -> Optional[Interface]:
        return self.routes.get(destination)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, ingress: Optional[Interface],
                intercept: bool = True) -> None:
        """Process a packet arriving on ``ingress``: hand RSVP signaling
        to the agent (unless ``intercept`` is off), forward the rest."""
        if (intercept and packet.protocol is RSVP
                and self.rsvp_agent is not None):
            self.rsvp_agent.handle_transit(packet, ingress)
            return
        egress = self.routes.get(packet.dst)
        if egress is None:
            self._drop(packet, "unroutable")
            return
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("net", "route.forward", flow=packet.flow_id,
                           fields={"router": self.name, "dst": packet.dst,
                                   "packet": packet.packet_id,
                                   "dscp": packet.dscp._name_})
        egress.send(packet)

    def forward(self, packet: Packet) -> None:
        """Forward by destination alone (the RSVP agent's way back into
        the data path for signaling it has already processed)."""
        self.receive(packet, None, intercept=False)

    def _drop(self, packet: Packet, reason: str) -> None:
        """Account one dropped packet through the same books (count,
        per-flow, per-reason, ``on_drop`` hook) the qdiscs keep."""
        self.dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        self.drops_by_flow[packet.flow_id] = (
            self.drops_by_flow.get(packet.flow_id, 0) + 1)
        if reason == "unroutable":
            self.unroutable += 1
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("net", "route.unroutable", flow=packet.flow_id,
                           fields={"router": self.name, "dst": packet.dst,
                                   "packet": packet.packet_id,
                                   "reason": reason})
        if self.on_drop is not None:
            self.on_drop(packet, reason)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Router {self.name!r} ifaces={list(self.interfaces)}>"
