"""``Packet`` stores its ports and sizes as given, without coercion.

Every hop reads ``size_bits`` and every delivery hashes
``(protocol, dst_port)``, so a float or a numpy integer slipping in
would change arithmetic and trace bytes downstream.  Each constructor
path in ``src/`` must hand ``Packet`` plain ``int``s.
"""

from repro.net import (
    CbrTrafficSource,
    DatagramSocket,
    FlowSpec,
    GuaranteedRateQueue,
    Network,
    StreamConnection,
    StreamListener,
)
from repro.net.packet import RSVP, TCP, UDP, Packet
from repro.oskernel import Host
from repro.sim import Kernel


def built_packets(monkeypatch):
    """Send one packet of every kind from a host through a router with
    IntServ on; return every ``Packet`` constructed meanwhile."""
    built = []
    init = Packet.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Packet, "__init__", recording_init)
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    for name in ("a", "b"):
        net.link(name, router, qdisc_a=GuaranteedRateQueue(kernel),
                 qdisc_b=GuaranteedRateQueue(kernel))
    net.compute_routes()
    net.enable_intserv()
    CbrTrafficSource(kernel, net.nic_of("a"), "b", 1e6,
                     packet_bytes=1000).run_for(0.02)
    DatagramSocket(kernel, net.nic_of("b"), port=7000)
    DatagramSocket(kernel, net.nic_of("a")).send_to(
        "b", 7000, "datagram", payload_bytes=300)
    StreamListener(kernel, net.nic_of("b"), port=2809)
    StreamConnection.connect(kernel, net.nic_of("a"), "b", 2809).send_message(
        "message", payload_bytes=4000)
    net.nic_of("a").rsvp_agent.announce_path("video", "b")
    kernel.run(until=0.1)
    net.nic_of("b").rsvp_agent.reserve("video", FlowSpec(1e6, 20_000))
    kernel.run(until=0.5)
    return built


def test_every_constructor_path_passes_int_ports_and_sizes(monkeypatch):
    sent = built_packets(monkeypatch)
    paths = {
        "cbr": [p for p in sent if p.flow_id.startswith("crosstraffic:")],
        "datagram": [p for p in sent if p.protocol is UDP
                     and not p.flow_id.startswith("crosstraffic:")],
        "stream data": [p for p in sent
                        if p.protocol is TCP and p.payload.kind == "data"],
        "stream ack": [p for p in sent
                       if p.protocol is TCP and p.payload.kind == "ack"],
        "rsvp": [p for p in sent if p.protocol is RSVP],
    }
    assert all(paths.values()), {k: len(v) for k, v in paths.items()}
    assert {"PATH", "RESV"} <= {p.payload.kind for p in paths["rsvp"]}
    for path, packets in paths.items():
        for packet in packets:
            fields = (packet.src_port, packet.dst_port, packet.payload_bytes,
                      packet.size_bytes, packet.size_bits)
            assert [type(f) for f in fields] == [int] * 5, (path, fields)
