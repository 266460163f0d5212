"""Integration tests for the A/V Streaming Service."""

import pytest

from repro.sim import Kernel, Process
from repro.oskernel import Host
from repro.net import Dscp, GuaranteedRateQueue, Network
from repro.orb import Orb
from repro.media import MpegStream
from repro.net.intserv import FlowSpec
from repro.orb.core import OrbError
from repro.avstreams import (
    AvStreamsError,
    MMDeviceServant,
    StreamCtrl,
)


def rig(kernel, intserv=False, bandwidth=10e6, bound=0.9):
    net = Network(kernel, default_bandwidth_bps=bandwidth)
    hosts = {}
    for name in ("src", "dst"):
        hosts[name] = Host(kernel, name)
        net.attach_host(hosts[name])
    router = net.add_router("r")

    def q():
        return GuaranteedRateQueue(kernel) if intserv else None

    net.link("src", router, qdisc_a=q(), qdisc_b=q())
    net.link(router, "dst", qdisc_a=q(), qdisc_b=q())
    net.compute_routes()
    if intserv:
        net.enable_intserv(utilization_bound=bound)
    orbs = {name: Orb(kernel, hosts[name], net) for name in hosts}
    devices = {}
    refs = {}
    for name, orb in orbs.items():
        device = MMDeviceServant(kernel, orb)
        poa = orb.create_poa("av")
        devices[name] = device
        refs[name] = poa.activate_object(device, oid="mmdevice")
    return net, orbs, devices, refs


def run_process(kernel, body, until=None):
    results = []

    def wrapper():
        value = yield from body()
        results.append(value)

    Process(kernel, wrapper(), name="test-driver")
    kernel.run(until=until)
    return results


def test_bind_creates_endpoints_both_sides():
    kernel = Kernel()
    net, orbs, devices, refs = rig(kernel)
    ctrl = StreamCtrl(kernel, orbs["src"])

    def body():
        binding = yield from ctrl.bind("video1", refs["src"], refs["dst"])
        return binding

    (binding,) = run_process(kernel, body)
    assert binding.flow_name == "video1"
    assert not binding.reserved
    assert devices["src"].has_flow("video1")
    assert devices["dst"].has_flow("video1")


def test_frames_flow_end_to_end():
    kernel = Kernel()
    net, orbs, devices, refs = rig(kernel)
    ctrl = StreamCtrl(kernel, orbs["src"])
    received = []

    def body():
        yield from ctrl.bind("video1", refs["src"], refs["dst"])
        consumer = devices["dst"].consumer("video1")
        consumer.on_frame = lambda frame, latency: received.append(
            (frame.sequence, latency))
        producer = devices["src"].producer("video1")
        stream = MpegStream("video1")
        for _ in range(30):
            producer.send_frame(stream.next_frame(kernel.now))
            yield 1 / 30.0
        return producer

    (producer,) = run_process(kernel, body)
    assert producer.frames_sent == 30
    assert [seq for seq, _ in received] == list(range(30))
    assert all(latency > 0 for _, latency in received)


def test_bind_applies_dscp_to_media_packets():
    kernel = Kernel()
    net, orbs, devices, refs = rig(kernel)
    ctrl = StreamCtrl(kernel, orbs["src"])
    dscps = []
    original = orbs["src"].nic.send

    def spy(packet):
        if packet.flow_id.startswith("avflow:"):
            dscps.append(packet.dscp)
        return original(packet)

    orbs["src"].nic.send = spy

    def body():
        yield from ctrl.bind("video1", refs["src"], refs["dst"],
                             dscp=Dscp.EF)
        producer = devices["src"].producer("video1")
        stream = MpegStream("video1")
        producer.send_frame(stream.next_frame(kernel.now))
        return True

    run_process(kernel, body)
    # The frame fragments to one or more packets, every one marked EF.
    assert dscps
    assert all(d == Dscp.EF for d in dscps)


def test_bind_with_reservation_installs_buckets():
    kernel = Kernel()
    net, orbs, devices, refs = rig(kernel, intserv=True)
    ctrl = StreamCtrl(kernel, orbs["src"])

    def body():
        binding = yield from ctrl.bind(
            "video1", refs["src"], refs["dst"],
            reservation=FlowSpec(1.2e6, 20_000),
        )
        return binding

    (binding,) = run_process(kernel, body)
    assert binding.reserved
    src_iface = net.nic_of("src").interface
    assert "avflow:video1" in src_iface.qdisc.reserved_flows()


def test_mandatory_reservation_failure_raises_and_cleans_up():
    kernel = Kernel()
    # Tiny bound: a 1.2 Mbps request cannot be admitted on 1 Mbps links.
    net, orbs, devices, refs = rig(kernel, intserv=True,
                                   bandwidth=1e6, bound=0.5)
    ctrl = StreamCtrl(kernel, orbs["src"])
    failures = []

    def body():
        try:
            yield from ctrl.bind(
                "video1", refs["src"], refs["dst"],
                reservation=FlowSpec(1.2e6, 20_000), mandatory=True,
            )
        except AvStreamsError as exc:
            failures.append(exc)
        return True

    run_process(kernel, body)
    assert failures
    assert not devices["src"].has_flow("video1")
    assert not devices["dst"].has_flow("video1")


def test_optional_reservation_failure_falls_back_to_best_effort():
    kernel = Kernel()
    net, orbs, devices, refs = rig(kernel, intserv=True,
                                   bandwidth=1e6, bound=0.5)
    ctrl = StreamCtrl(kernel, orbs["src"])

    def body():
        binding = yield from ctrl.bind(
            "video1", refs["src"], refs["dst"],
            reservation=FlowSpec(1.2e6, 20_000), mandatory=False,
        )
        return binding

    (binding,) = run_process(kernel, body)
    assert not binding.reserved
    assert devices["src"].has_flow("video1")


def test_unbind_tears_down_flow_and_reservation():
    kernel = Kernel()
    net, orbs, devices, refs = rig(kernel, intserv=True)
    ctrl = StreamCtrl(kernel, orbs["src"])

    def body():
        binding = yield from ctrl.bind(
            "video1", refs["src"], refs["dst"],
            reservation=FlowSpec(1.2e6, 20_000),
        )
        yield from ctrl.unbind(binding)
        return binding

    run_process(kernel, body)
    assert not devices["src"].has_flow("video1")
    assert not devices["dst"].has_flow("video1")
    src_iface = net.nic_of("src").interface
    assert "avflow:video1" not in src_iface.qdisc.reserved_flows()


def test_duplicate_flow_name_rejected():
    kernel = Kernel()
    net, orbs, devices, refs = rig(kernel)
    ctrl = StreamCtrl(kernel, orbs["src"])
    errors = []

    def body():
        yield from ctrl.bind("video1", refs["src"], refs["dst"])
        try:
            yield from ctrl.bind("video1", refs["src"], refs["dst"])
        except Exception as exc:  # OrbError wrapping AvStreamsError
            errors.append(exc)
        return True

    run_process(kernel, body)
    assert errors


def test_stream_qos_validation():
    with pytest.raises(ValueError):
        FlowSpec(0, 20_000)
    with pytest.raises(ValueError):
        FlowSpec(1.2e6, 0)


def test_reserve_flow_rejects_a_malformed_flowspec_at_once():
    """A bad remote flowspec is an error, not a retried 'not admitted'."""
    kernel = Kernel()
    net, orbs, devices, refs = rig(kernel, intserv=True)
    ctrl = StreamCtrl(kernel, orbs["src"])
    outcome = []

    def body():
        yield from ctrl.bind("video1", refs["src"], refs["dst"])
        asked_at = kernel.now
        try:
            yield from ctrl._call(refs["dst"], "reserve_flow", "video1",
                                  0, 20_000)
        except OrbError as exc:
            outcome.append((exc, kernel.now - asked_at))
        return True

    run_process(kernel, body)
    ((error, waited),) = outcome
    assert "rate must be positive" in str(error)
    assert waited < 0.05  # no retry loop ran
