"""IP-like packets.

A :class:`Packet` is addressed by *host name* and *port* (this network
does not need a numeric addressing plan), and carries the two header
fields the paper's mechanisms act on: the 6-bit DiffServ codepoint and
the 2-bit ECN field (section 3.2: "An IP header has an 8 bit DiffServ
field that encodes router-level QoS into six bits of DiffServ Codepoint
... and two bits of Explicit Congestion Notification").
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.net.diffserv import Dscp

#: Fixed per-packet header overhead (IP + transport), in bytes.
HEADER_BYTES = 40

#: Conventional Ethernet MTU used when transports fragment, in bytes.
MTU_BYTES = 1500


class Protocol(enum.Enum):
    """Transport protocol demultiplexing key."""

    UDP = "udp"
    TCP = "tcp"
    RSVP = "rsvp"

    # Every delivery hashes ``(protocol, port)`` to find its endpoint;
    # ``Enum.__hash__`` is a Python-level ``hash(self._name_)``.  Members
    # are singletons compared by identity, so the identity hash is the
    # same equivalence at C speed.
    __hash__ = object.__hash__


# Per-packet code reads these module globals.  On CPython 3.10 / 3.11
# ``EnumMeta`` defines ``__getattr__``, which puts every attribute load
# on the class (``Protocol.RSVP``) on a slow path: about ten global loads.
UDP, TCP, RSVP = Protocol.UDP, Protocol.TCP, Protocol.RSVP


class Packet:
    """One simulated datagram.

    ``payload`` is opaque application data (bytes or any Python object);
    ``payload_bytes`` sets the simulated size independently of the real
    payload so that, e.g., a synthetic video frame object can "weigh"
    12 kB on the wire.

    Contract: ``src_port``, ``dst_port`` and ``payload_bytes`` are
    ``int``s, and so ``size_bytes`` / ``size_bits`` are too.  They are
    stored as given, not coerced: every constructor site (the CBR
    source, both transports, the RSVP agent) passes ints.

    Each site draws the trailing ``packet_id`` from its kernel's
    ``ids("packet")``; the default ``0`` means "not drawn from a kernel"
    (only micro-benchmarks and unit tests rely on it).
    """

    __slots__ = (
        "packet_id",
        "src",
        "dst",
        "src_port",
        "dst_port",
        "protocol",
        "payload",
        "payload_bytes",
        "dscp",
        "ecn",
        "flow_id",
        "created_at",
        "hops",
        "size_bytes",
        "size_bits",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        src_port: int,
        dst_port: int,
        protocol: Protocol,
        payload: Any = None,
        payload_bytes: int = 0,
        dscp: Dscp = Dscp.BE,
        flow_id: Optional[str] = None,
        created_at: float = 0.0,
        packet_id: int = 0,
    ) -> None:
        self.packet_id = packet_id
        self.src = src
        self.dst = dst
        self.src_port = src_port
        self.dst_port = dst_port
        self.protocol = protocol
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.dscp = dscp
        #: ECN congestion-experienced mark (set by AQM-capable queues).
        self.ecn = False
        #: Flow identity used by IntServ classifiers; defaults to the
        #: 5-tuple-ish string so unrelated traffic never collides.
        self.flow_id = flow_id or f"{src}:{src_port}->{dst}:{dst_port}"
        self.created_at = created_at
        #: Number of store-and-forward hops traversed (observability).
        self.hops = 0
        # Sizes are fixed at creation (no code mutates payload_bytes);
        # precomputed because every hop reads them several times and
        # attribute loads beat property calls on this path.
        self.size_bytes = self.payload_bytes + HEADER_BYTES
        self.size_bits = self.size_bytes * 8

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Packet {self.packet_id} {self.src}:{self.src_port}->"
            f"{self.dst}:{self.dst_port} {self.protocol.value} "
            f"{self.size_bytes}B dscp={self.dscp.name}>"
        )
