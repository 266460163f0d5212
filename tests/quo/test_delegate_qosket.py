"""Tests for delegates and qoskets, including in-band ORB adaptation."""

import pytest

from repro.sim import Kernel, Process
from repro.oskernel import Host
from repro.net import Dscp, Network
from repro.orb import Orb, compile_idl
from repro.orb.core import raise_if_error
from repro.quo import Contract, Delegate, Qosket, Region, ValueSC


IDL = """
interface Sensor {
    long read(in long channel);
};
"""
SENSOR = compile_idl(IDL)["Sensor"]


class FakeStub:
    """A stub-shaped object for unit-level delegate tests."""

    def __init__(self):
        self.dscp = None
        self.priority = None
        self.invocations = []

    def read(self, channel):
        self.invocations.append(channel)
        return f"value-{channel}"


def make_contract(kernel):
    contract = Contract(kernel, "net", regions=[
        Region("congested", lambda s: s["loss"] > 0.2),
        Region("clear"),
    ])
    loss = ValueSC(kernel, "loss", initial=0.0)
    contract.attach(loss)
    contract.evaluate()
    return contract, loss


def test_delegate_passes_through_without_behavior():
    kernel = Kernel()
    contract, _ = make_contract(kernel)
    stub = FakeStub()
    delegate = Delegate(stub, contract)
    assert delegate.read(3) == "value-3"
    assert stub.invocations == [3]
    assert delegate.calls_passed == 1


def test_delegate_behavior_can_adjust_qos_knobs():
    kernel = Kernel()
    contract, loss = make_contract(kernel)
    stub = FakeStub()

    def mark_ef(delegate, operation, args, proceed):
        delegate.stub.dscp = Dscp.EF
        return proceed(*args)

    delegate = Delegate(stub, contract, behaviors={"congested": mark_ef})
    loss.set(0.5)  # -> congested
    assert delegate.read(1) == "value-1"
    assert stub.dscp == Dscp.EF
    assert delegate.calls_adapted == 1


def test_delegate_behavior_can_drop_calls():
    kernel = Kernel()
    contract, loss = make_contract(kernel)
    stub = FakeStub()

    def shed(delegate, operation, args, proceed):
        return None  # never proceeds

    delegate = Delegate(stub, contract, behaviors={"congested": shed})
    loss.set(0.9)
    assert delegate.read(1) is None
    assert stub.invocations == []
    assert delegate.calls_dropped == 1


def test_delegate_behavior_can_rewrite_arguments():
    kernel = Kernel()
    contract, loss = make_contract(kernel)
    stub = FakeStub()

    def downsample(delegate, operation, args, proceed):
        return proceed(args[0] * 100)

    delegate = Delegate(stub, contract, behaviors={"congested": downsample})
    loss.set(0.9)
    assert delegate.read(2) == "value-200"


def test_delegate_attribute_reads_and_writes_reach_stub():
    kernel = Kernel()
    contract, _ = make_contract(kernel)
    stub = FakeStub()
    delegate = Delegate(stub, contract)
    stub.priority = 9000
    assert delegate.priority == 9000
    assert delegate.stub is stub


def test_delegate_region_checked_per_call():
    kernel = Kernel()
    contract, loss = make_contract(kernel)
    stub = FakeStub()
    dropped = {"count": 0}

    def shed(delegate, operation, args, proceed):
        dropped["count"] += 1

    delegate = Delegate(stub, contract, behaviors={"congested": shed})
    delegate.read(1)  # clear: passes
    loss.set(0.9)
    delegate.read(2)  # congested: shed
    loss.set(0.0)
    delegate.read(3)  # clear again: passes
    assert stub.invocations == [1, 3]
    assert dropped["count"] == 1


# ----------------------------------------------------------------------
# Qosket packaging + real ORB integration
# ----------------------------------------------------------------------
def test_qosket_wires_conditions_and_behaviors():
    kernel = Kernel()
    contract = Contract(kernel, "q", regions=[
        Region("bad", lambda s: s["loss"] > 0.2),
        Region("good"),
    ])
    loss = ValueSC(kernel, "loss", initial=0.0)
    marks = []

    def behavior(delegate, operation, args, proceed):
        marks.append(operation)
        return proceed(*args)

    qosket = Qosket(kernel, contract, conditions=[loss],
                    behaviors={"bad": behavior})
    qosket.start()
    stub = FakeStub()
    delegate = qosket.apply(stub)
    loss.set(0.5)
    delegate.read(1)
    assert marks == ["read"]
    assert qosket.delegates == [delegate]


def test_qosket_delegate_adapts_real_orb_calls():
    """In-band adaptation on a live stub: congestion flips DSCP."""
    kernel = Kernel()
    client_host, server_host = Host(kernel, "c"), Host(kernel, "s")
    net = Network(kernel, default_bandwidth_bps=100e6)
    net.attach_host(client_host)
    net.attach_host(server_host)
    router = net.add_router("r")
    net.link(client_host, router)
    net.link(router, server_host)
    net.compute_routes()
    client_orb = Orb(kernel, client_host, net)
    server_orb = Orb(kernel, server_host, net)

    class SensorServant(SENSOR.skeleton_class):
        def read(self, channel):
            return channel * 2

    poa = server_orb.create_poa("sensors")
    objref = poa.activate_object(SensorServant())
    stub = SENSOR.stub_class(client_orb, objref)

    contract = Contract(kernel, "net", regions=[
        Region("congested", lambda s: s["loss"] > 0.2),
        Region("clear"),
    ])
    loss = ValueSC(kernel, "loss", initial=0.0)

    def protect(delegate, operation, args, proceed):
        delegate.stub.dscp = Dscp.EF
        return proceed(*args)

    qosket = Qosket(kernel, contract, conditions=[loss],
                    behaviors={"congested": protect})
    qosket.start()
    delegate = qosket.apply(stub)

    sent_dscps = []
    original = client_orb.nic.send

    def spy(packet):
        sent_dscps.append(packet.dscp)
        return original(packet)

    client_orb.nic.send = spy
    results = []

    def body():
        first = yield delegate.read(1)
        results.append(raise_if_error(first))
        loss.set(0.5)  # congestion detected
        second = yield delegate.read(2)
        results.append(raise_if_error(second))

    Process(kernel, body(), name="app")
    kernel.run()
    assert results == [2, 4]
    assert sent_dscps[0] == Dscp.BE  # before congestion
    assert Dscp.EF in sent_dscps  # after adaptation
    assert stub.dscp == Dscp.EF
