"""Failure recovery across the stack: the mission must survive flaps."""

import pytest

from repro.sim import Kernel, Process
from repro.oskernel import Host
from repro.net import GuaranteedRateQueue, Network
from repro.orb import Orb, compile_idl
from repro.orb.core import raise_if_error
from repro.media import MpegStream
from repro.avstreams import MMDeviceServant, StreamCtrl
from repro.core import EndToEndQoSManager, QosPolicy


def rig(kernel):
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("src", "dst"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")

    def q():
        return GuaranteedRateQueue(kernel)

    link_src = net.link("src", router, qdisc_a=q(), qdisc_b=q())
    link_dst = net.link(router, "dst", qdisc_a=q(), qdisc_b=q())
    net.compute_routes()
    net.enable_intserv()
    orbs = {name: Orb(kernel, net.host(name), net) for name in ("src", "dst")}
    devices, refs = {}, {}
    for name, orb in orbs.items():
        device = MMDeviceServant(kernel, orb)
        poa = orb.create_poa("av")
        devices[name] = device
        refs[name] = poa.activate_object(device, oid="mm")
    return net, orbs, devices, refs, link_src, link_dst


#: A full reservation for the paper's ~1.2 Mbps stream.
RESERVED = QosPolicy(reservation=QosPolicy.flow(1.4e6))


def test_reserved_stream_resumes_after_link_flap():
    """Router reservation state is not connection state: after a 2 s
    outage the reserved flow must return to lossless delivery without
    re-signaling."""
    kernel = Kernel()
    net, orbs, devices, refs, link_src, link_dst = rig(kernel)
    ctrl = StreamCtrl(kernel, orbs["src"])
    delivered = []

    def scenario():
        binding = yield from EndToEndQoSManager().open_stream(
            "video", RESERVED, ctrl, refs["src"], refs["dst"])
        assert binding.reserved
        producer = devices["src"].producer("video")
        consumer = devices["dst"].consumer("video")
        consumer.on_frame = lambda frame, latency: delivered.append(
            (kernel.now, frame.sequence))
        stream = MpegStream("video")
        while True:
            producer.send_frame(stream.next_frame(kernel.now))
            yield stream.frame_interval

    Process(kernel, scenario(), name="pump")
    kernel.schedule(5.0, link_dst.fail)
    kernel.schedule(7.0, link_dst.restore)
    kernel.run(until=15.0)

    before = [t for t, _ in delivered if t < 5.0]
    during = [t for t, _ in delivered if 5.0 <= t < 7.0]
    after = [t for t, _ in delivered if t >= 7.5]
    assert len(before) == pytest.approx(150, abs=3)  # 30 fps pre-flap
    assert len(during) < 10  # media is unreliable: outage = loss
    # Post-restore: full-rate, reservation still honored end to end.
    assert len(after) == pytest.approx(7.5 * 30, abs=5)
    iface = net.nic_of("src").interface
    assert "avflow:video" in iface.qdisc.reserved_flows()


def test_corba_calls_resume_after_flap_without_new_connection():
    kernel = Kernel()
    net, orbs, devices, refs, link_src, _ = rig(kernel)
    IDL = "interface Echo { long ping(in long n); };"
    ECHO = compile_idl(IDL)["Echo"]

    class EchoServant(ECHO.skeleton_class):
        def ping(self, n):
            return n

    poa = orbs["dst"].create_poa("echo")
    echo_ref = poa.activate_object(EchoServant())
    results = []

    def client():
        stub = ECHO.stub_class(orbs["src"], echo_ref)
        for i in range(20):
            result = yield stub.ping(i)
            results.append((kernel.now, raise_if_error(result)))
            yield 0.5

    Process(kernel, client(), name="client")
    kernel.schedule(2.0, link_src.fail)
    kernel.schedule(4.0, link_src.restore)
    kernel.run(until=60.0)
    # Every call eventually completed, in order, on the same connection.
    assert [value for _, value in results] == list(range(20))
    assert len(orbs["src"]._connections) == 1
    connection = next(iter(orbs["src"]._connections.values()))
    assert not connection.closed
    assert connection.retransmissions > 0
