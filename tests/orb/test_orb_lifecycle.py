"""Edge cases: ORB/POA lifecycle, dispatch errors, buffering bounds."""

import pytest

from repro.sim import Kernel, Process
from repro.oskernel import Host
from repro.net import Network
from repro.orb import Orb, OrbError, compile_idl
from repro.orb.core import raise_if_error
from repro.orb.poa import PoaError, Servant
from repro.orb.rt import PriorityMappingManager, PriorityModel, ThreadPool

IDL = "interface Thing { long poke(in long n); };"
THING = compile_idl(IDL)["Thing"]


class ThingServant(THING.skeleton_class):
    def poke(self, n):
        return n + 1


def rig(kernel):
    net = Network(kernel, default_bandwidth_bps=100e6)
    for name in ("c", "s"):
        net.attach_host(Host(kernel, name))
    net.link("c", "s")
    net.compute_routes()
    return net, Orb(kernel, net.host("c"), net), Orb(kernel, net.host("s"), net)


def call(kernel, stub, value):
    results = []

    def body():
        reply = yield stub.poke(value)
        results.append(reply)

    Process(kernel, body(), name="caller")
    kernel.run()
    return results[0]


def test_duplicate_poa_name_rejected():
    kernel = Kernel()
    _, _, server_orb = rig(kernel)
    server_orb.create_poa("things")
    with pytest.raises(OrbError):
        server_orb.create_poa("things")


def test_duplicate_oid_rejected():
    kernel = Kernel()
    _, _, server_orb = rig(kernel)
    poa = server_orb.create_poa("things")
    poa.activate_object(ThingServant(), oid="one")
    with pytest.raises(PoaError):
        poa.activate_object(ThingServant(), oid="one")


def test_server_declared_poa_requires_priority():
    kernel = Kernel()
    _, _, server_orb = rig(kernel)
    with pytest.raises(PoaError):
        server_orb.create_poa(
            "bad", priority_model=PriorityModel.SERVER_DECLARED)


def test_request_to_unknown_poa_returns_system_exception():
    kernel = Kernel()
    _, client_orb, server_orb = rig(kernel)
    poa = server_orb.create_poa("things")
    objref = poa.activate_object(ThingServant())
    objref.object_key = "ghost-poa/oid1"
    stub = THING.stub_class(client_orb, objref)
    result = call(kernel, stub, 1)
    assert isinstance(result, OrbError)
    assert "ghost-poa" in str(result)


def test_orb_shutdown_closes_connections():
    kernel = Kernel()
    _, client_orb, server_orb = rig(kernel)
    poa = server_orb.create_poa("things")
    stub = THING.stub_class(client_orb, poa.activate_object(ThingServant()))
    assert call(kernel, stub, 1) == 2
    connections = list(client_orb._connections.values())
    assert connections
    client_orb.shutdown()
    assert all(connection.closed for connection in connections)
    with pytest.raises(RuntimeError):
        connections[0].send_message("x", 1)


def test_pool_buffer_overflow_returns_transient_to_client():
    kernel = Kernel()
    _, client_orb, server_orb = rig(kernel)

    class Slow(THING.skeleton_class):
        def poke(self, n):
            yield self.compute(1.0)
            return n

    pool = ThreadPool(kernel, server_orb.host, server_orb.mapping_manager,
                      lanes=[(0, 1)], max_buffered_requests=1,
                      name="tiny")
    poa = server_orb.create_poa("things", thread_pool=pool)
    objref = poa.activate_object(Slow())
    results = []

    def client(i):
        stub = THING.stub_class(client_orb, objref)
        reply = yield stub.poke(i)
        results.append(reply)

    for i in range(5):
        Process(kernel, client(i), name=f"c{i}")
    kernel.run()
    rejected = [r for r in results if isinstance(r, OrbError)]
    completed = [r for r in results if not isinstance(r, BaseException)]
    assert rejected, "buffer bound should have rejected some requests"
    assert any("TRANSIENT" in str(r) for r in rejected)
    assert completed, "some requests must still complete"


def test_servant_compute_outside_dispatch_rejected():
    kernel = Kernel()
    _, _, server_orb = rig(kernel)
    servant = ThingServant()
    with pytest.raises(PoaError):
        servant.compute(0.1)  # not activated
    poa = server_orb.create_poa("things")
    poa.activate_object(servant)
    with pytest.raises(PoaError):
        servant.compute(0.1)  # activated, but no dispatch in progress
