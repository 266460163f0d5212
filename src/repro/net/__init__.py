"""Simulated network substrate.

Models the paper's testbed network: store-and-forward links, routers
with configurable queue disciplines, DiffServ per-hop behaviours
(section 3.2), and IntServ/RSVP per-flow reservations (section 3.4).

Layering (bottom up):

``packet`` / ``diffserv``
    IP-like packets carrying a DSCP + ECN field; codepoint definitions.

``queues``
    Egress queue disciplines: tail-drop FIFO, DiffServ strict-priority
    bands, and a guaranteed-rate discipline with token-bucket policing
    for IntServ reservations.

``link`` / ``router`` / ``nic``
    Store-and-forward devices.  Routers forward by destination host
    name and intercept RSVP signaling hop-by-hop.

``topology``
    The :class:`Network` builder: attach hosts, create routers, wire
    duplex links, install the converged SPF routes.  Also the topology
    generators (Waxman, fat-tree, multi-PoP WAN) the scale scenarios
    build on.

``routing``
    Link-state routing: the LSA builder and SPF-table installer every
    route computation shares, LSA flooding, Dijkstra SPF with
    deterministic tie-breaks, and RSVP make-before-break re-signaling
    on convergence.

``transport``
    UDP-like datagram sockets and a TCP-like reliable, in-order stream
    with retransmission — the ORB's GIOP connections ride on the
    latter, A/V media flows on the former.

``intserv``
    RSVP PATH/RESV signaling agents with per-hop admission control.

``traffic``
    Cross-traffic generators used to congest the experiments.
"""

from repro.net.diffserv import Dscp, PhbClass, classify
from repro.net.intserv import (
    FlowSpec,
    Reservation,
    ReservationError,
    RsvpAgent,
)
from repro.net.link import Interface, Link
from repro.net.nic import Nic
from repro.net.packet import Packet, Protocol
from repro.net.queues import (
    DiffServQueue,
    FifoQueue,
    GuaranteedRateQueue,
    QueueDiscipline,
    TokenBucket,
)
from repro.net.router import Router
from repro.net.routing import (
    SEQ_MODULUS,
    LinkStateRouting,
    Lsa,
    ReservationResignaler,
    predict_path,
    seq_newer,
    spf_first_hops,
)
from repro.net.topology import (
    GeneratedTopology,
    Network,
    fat_tree_topology,
    generate_topology,
    wan_topology,
    waxman_topology,
)
from repro.net.traffic import CbrTrafficSource
from repro.net.transport import DatagramSocket, StreamConnection, StreamListener

__all__ = [
    "CbrTrafficSource",
    "DatagramSocket",
    "DiffServQueue",
    "Dscp",
    "FifoQueue",
    "FlowSpec",
    "GeneratedTopology",
    "GuaranteedRateQueue",
    "Interface",
    "Link",
    "LinkStateRouting",
    "Lsa",
    "Network",
    "Nic",
    "Packet",
    "PhbClass",
    "Protocol",
    "QueueDiscipline",
    "Reservation",
    "ReservationError",
    "ReservationResignaler",
    "Router",
    "RsvpAgent",
    "SEQ_MODULUS",
    "StreamConnection",
    "StreamListener",
    "TokenBucket",
    "classify",
    "fat_tree_topology",
    "generate_topology",
    "predict_path",
    "seq_newer",
    "spf_first_hops",
    "wan_topology",
    "waxman_topology",
]
