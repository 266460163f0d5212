"""Host network interfaces.

A :class:`Nic` is a host's attachment to the network.  It owns one or
more :class:`~repro.net.link.Interface` objects (multi-homed hosts —
like the paper's video distributor bridging a wireless and a wired
segment — have several), forwards outbound packets onto the interface
routed toward the destination, and demultiplexes inbound packets to
bound transport endpoints by ``(protocol, port)``.

Hosts never forward transit traffic: a packet addressed elsewhere that
arrives here is counted and dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.sim.kernel import Kernel
from repro.net.link import Interface
from repro.net.packet import RSVP, Packet, Protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.oskernel.host import Host
    from repro.net.intserv import RsvpAgent

#: Receive callback signature: (packet) -> None.
Receiver = Callable[[Packet], None]


class Nic:
    """One host's network attachment point.

    The Nic is a :class:`~repro.net.topology.Device`: the Network wires
    its interfaces to routers or directly to other hosts, and fills in
    :attr:`routes`.
    """

    def __init__(self, kernel: Kernel, host: "Host", name: str = "eth0") -> None:
        self.kernel = kernel
        self.host = host
        #: Device name used for routing/addressing: the host's name.
        self.name = host.name
        #: Interface label within the host (e.g. "eth0").
        self.ifname = name
        self.interfaces: List[Interface] = []
        #: Destination host name -> egress interface, filled by
        #: :meth:`~repro.net.topology.Network.compute_routes`; a
        #: destination with no entry leaves on the first interface.
        self.routes: Dict[str, Interface] = {}
        self._bindings: Dict[Tuple[Protocol, int], Receiver] = {}
        self._next_ephemeral = 49152
        #: Packets delivered to a bound endpoint.
        self.delivered = 0
        #: Packets with no bound endpoint (dropped, counted).
        self.undeliverable = 0
        #: RSVP host agent, if IntServ signaling is enabled.
        self.rsvp_agent: Optional["RsvpAgent"] = None
        host.attach_nic(self)

    # ------------------------------------------------------------------
    # Port management
    # ------------------------------------------------------------------
    def bind(self, protocol: Protocol, port: int, receiver: Receiver) -> None:
        key = (protocol, int(port))
        if key in self._bindings:
            raise ValueError(f"{self.name}: port {key} already bound")
        self._bindings[key] = receiver

    def unbind(self, protocol: Protocol, port: int) -> None:
        self._bindings.pop((protocol, int(port)), None)

    def allocate_port(self) -> int:
        """Hand out an unused ephemeral port number."""
        while True:
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if not any(p == port for (_, p) in self._bindings):
                return port

    # ------------------------------------------------------------------
    # Device protocol (topology wiring)
    # ------------------------------------------------------------------
    def add_interface(self, interface: Interface) -> None:
        self.interfaces.append(interface)

    @property
    def interface(self) -> Optional[Interface]:
        """The primary (first) interface; None if unattached."""
        return self.interfaces[0] if self.interfaces else None

    def egress_for(self, destination: str) -> Interface:
        """Interface used for traffic toward ``destination``."""
        chosen = self.routes.get(destination)
        if chosen is not None:
            return chosen
        if not self.interfaces:
            raise RuntimeError(f"{self.name} is not attached to a link")
        return self.interfaces[0]

    def receive(self, packet: Packet, ingress: Interface) -> None:
        tracer = self.kernel.tracer
        if packet.dst != self.name:
            # Hosts do not forward.
            self.undeliverable += 1
            if tracer is not None:
                tracer.instant("net", "nic.undeliverable", flow=packet.flow_id,
                               fields={"host": self.name,
                                       "packet": packet.packet_id,
                                       "reason": "transit"})
            return
        if packet.protocol is RSVP and self.rsvp_agent is not None:
            self.rsvp_agent.handle_local(packet, ingress)
            return
        receiver = self._bindings.get((packet.protocol, packet.dst_port))
        if receiver is None:
            self.undeliverable += 1
            if tracer is not None:
                tracer.instant("net", "nic.undeliverable", flow=packet.flow_id,
                               fields={"host": self.name,
                                       "packet": packet.packet_id,
                                       "reason": "unbound"})
            return
        self.delivered += 1
        if tracer is not None:
            tracer.instant("net", "nic.deliver", flow=packet.flow_id,
                           fields={"host": self.name,
                                   "packet": packet.packet_id})
        receiver(packet)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Push ``packet`` toward the network; False if dropped locally."""
        if packet.dst == self.name:
            # Loopback: deliver on the next tick, no wire involved.
            self.kernel.schedule(0.0, self.receive, packet, None)
            return True
        # egress_for(), resolved in this frame (one call per packet).
        egress = self.routes.get(packet.dst)
        if egress is None:
            if not self.interfaces:
                raise RuntimeError(f"{self.name} is not attached to a link")
            egress = self.interfaces[0]
        return egress.send(packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Nic {self.name}.{self.ifname}>"
