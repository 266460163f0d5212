"""End-to-end ORB integration: stubs calling servants across the net."""

import pytest

from repro.sim import Kernel, Process
from repro.oskernel import Host, OsType
from repro.net import Dscp, Network
from repro.orb import Orb, OrbError, RequestTimeout, compile_idl
from repro.orb.cdr import OpaquePayload
from repro.orb.core import raise_if_error
from repro.orb.ior import ObjectReference
from repro.orb.poa import Servant
from repro.orb.rt import PriorityMappingManager, PriorityModel, ThreadPool


IDL = """
module Demo {
    interface Calculator {
        long add(in long a, in long b);
        string greet(in string name);
        oneway void push(in opaque frame);
        long crunch(in opaque image);
    };
};
"""
INTERFACES = compile_idl(IDL)
CALC = INTERFACES["Demo::Calculator"]


class CalculatorServant(CALC.skeleton_class):
    def __init__(self, host=None):
        self.host = host
        self.pushed = []

    def add(self, a, b):
        return a + b

    def greet(self, name):
        return f"hello {name}"

    def push(self, frame):
        self.pushed.append(frame.value)

    def crunch(self, image):
        # A compute-heavy servant: expresses CPU demand via a generator.
        yield self.compute(0.05)
        return image.nbytes


def rig(kernel, client_os=OsType.LINUX, server_os=OsType.LINUX):
    client_host = Host(kernel, "client", os_type=client_os)
    server_host = Host(kernel, "server", os_type=server_os)
    net = Network(kernel, default_bandwidth_bps=100e6)
    net.attach_host(client_host)
    net.attach_host(server_host)
    router = net.add_router("r")
    net.link(client_host, router)
    net.link(router, server_host)
    net.compute_routes()
    client_orb = Orb(kernel, client_host, net)
    server_orb = Orb(kernel, server_host, net)
    return client_host, server_host, client_orb, server_orb


def run_client(kernel, body):
    """Run a client coroutine and return its collected results."""
    results = []

    def wrapper():
        value = yield from body()
        results.append(value)

    Process(kernel, wrapper(), name="client-app")
    kernel.run()
    assert results, "client coroutine did not finish"
    return results[0]


def test_two_way_call_returns_result():
    kernel = Kernel()
    client_host, server_host, client_orb, server_orb = rig(kernel)
    poa = server_orb.create_poa("calc")
    objref = poa.activate_object(CalculatorServant())
    stub = CALC.stub_class(client_orb, objref)

    def body():
        result = yield stub.add(20, 22)
        return raise_if_error(result)

    assert run_client(kernel, body) == 42


def test_string_roundtrip_through_wire():
    kernel = Kernel()
    _, _, client_orb, server_orb = rig(kernel)
    poa = server_orb.create_poa("calc")
    objref = poa.activate_object(CalculatorServant())
    stub = CALC.stub_class(client_orb, objref)

    def body():
        result = yield stub.greet("middleware")
        return raise_if_error(result)

    assert run_client(kernel, body) == "hello middleware"


def test_oneway_delivers_without_reply():
    kernel = Kernel()
    _, _, client_orb, server_orb = rig(kernel)
    poa = server_orb.create_poa("calc")
    servant = CalculatorServant()
    objref = poa.activate_object(servant)
    stub = CALC.stub_class(client_orb, objref)

    def body():
        ack = yield stub.push(OpaquePayload({"frame": 1}, nbytes=5000))
        return ack

    assert run_client(kernel, body) is None
    assert servant.pushed == [{"frame": 1}]


def test_generator_servant_consumes_cpu():
    kernel = Kernel()
    _, server_host, client_orb, server_orb = rig(kernel)
    poa = server_orb.create_poa("calc")
    objref = poa.activate_object(CalculatorServant(host=server_host))
    stub = CALC.stub_class(client_orb, objref)

    def body():
        result = yield stub.crunch(OpaquePayload("img", nbytes=300_060))
        return raise_if_error(result)

    assert run_client(kernel, body) == 300_060
    # The 50 ms of servant compute must have been charged somewhere.
    assert server_host.cpu.busy_time >= 0.05


def test_marshal_cost_charged_to_client_thread():
    kernel = Kernel()
    client_host, _, client_orb, server_orb = rig(kernel)
    poa = server_orb.create_poa("calc")
    objref = poa.activate_object(CalculatorServant())
    app_thread = client_host.spawn_thread("app", priority=10)
    stub = CALC.stub_class(client_orb, objref, thread=app_thread)

    def body():
        result = yield stub.add(1, 2)
        return raise_if_error(result)

    assert run_client(kernel, body) == 3
    assert app_thread.cpu_time > 0


def test_missing_servant_raises_system_exception():
    kernel = Kernel()
    _, _, client_orb, server_orb = rig(kernel)
    poa = server_orb.create_poa("calc")
    live = poa.activate_object(CalculatorServant())
    # The live POA, an object id nothing was ever activated under.
    objref = ObjectReference(live.type_id, live.host, live.port,
                             "calc/ghost", live.components)
    stub = CALC.stub_class(client_orb, objref)

    def body():
        result = yield stub.add(1, 2)
        return result

    result = run_client(kernel, body)
    assert isinstance(result, OrbError)
    with pytest.raises(OrbError):
        raise_if_error(result)


def test_servant_exception_marshaled_back():
    kernel = Kernel()
    _, _, client_orb, server_orb = rig(kernel)

    class Broken(CALC.skeleton_class):
        def add(self, a, b):
            raise ValueError("arithmetic is hard")

    poa = server_orb.create_poa("calc")
    objref = poa.activate_object(Broken())
    stub = CALC.stub_class(client_orb, objref)

    def body():
        result = yield stub.add(1, 2)
        return result

    result = run_client(kernel, body)
    assert isinstance(result, OrbError)
    assert "arithmetic is hard" in str(result)


def test_timeout_fires_when_server_unreachable():
    kernel = Kernel()
    _, _, client_orb, _ = rig(kernel)
    # Reference to a host that has no route (unknown name).
    from repro.orb import ObjectReference
    bogus = ObjectReference("IDL:X:1.0", "ghost", 2809, "calc/oid1")
    stub = CALC.stub_class(client_orb, bogus, timeout=0.5)

    def body():
        result = yield stub.add(1, 2)
        return result

    result = run_client(kernel, body)
    assert isinstance(result, RequestTimeout)


def test_client_propagated_priority_reaches_server_thread():
    kernel = Kernel()
    _, server_host, client_orb, server_orb = rig(
        kernel, server_os=OsType.LYNXOS)
    pool = ThreadPool(
        kernel, server_host, server_orb.mapping_manager, [(0, 1)],
        name="rt-pool",
    )
    observed = []

    class Spy(CALC.skeleton_class):
        def add(self, a, b):
            thread = server_orb.current_dispatch_thread
            observed.append(thread.priority)
            return a + b

    poa = server_orb.create_poa(
        "calc", thread_pool=pool,
        priority_model=PriorityModel.CLIENT_PROPAGATED,
    )
    objref = poa.activate_object(Spy())
    stub = CALC.stub_class(client_orb, objref, priority=32767)

    def body():
        result = yield stub.add(1, 2)
        return raise_if_error(result)

    run_client(kernel, body)
    # LynxOS range is 0..255; CORBA 32767 maps to 255.
    assert observed == [255]


def test_server_declared_ignores_client_priority():
    kernel = Kernel()
    _, server_host, client_orb, server_orb = rig(kernel)
    observed = []

    class Spy(CALC.skeleton_class):
        def add(self, a, b):
            observed.append(server_orb.current_dispatch_thread.priority)
            return a + b

    poa = server_orb.create_poa(
        "calc",
        priority_model=PriorityModel.SERVER_DECLARED,
        server_priority=16000,
    )
    objref = poa.activate_object(Spy())
    stub = CALC.stub_class(client_orb, objref, priority=32767)

    def body():
        result = yield stub.add(1, 2)
        return raise_if_error(result)

    run_client(kernel, body)
    expected = server_orb.mapping_manager.to_native(
        16000, server_host.os_type)
    assert observed == [expected]


def test_dscp_from_priority_mapping_marks_connection():
    kernel = Kernel()
    client_host, _, client_orb, server_orb = rig(kernel)
    client_orb.map_priority_to_dscp = True
    poa = server_orb.create_poa("calc")
    objref = poa.activate_object(CalculatorServant())
    stub = CALC.stub_class(client_orb, objref, priority=32767)

    sent_dscps = []
    original = client_orb.nic.send

    def spy(packet):
        sent_dscps.append(packet.dscp)
        return original(packet)

    client_orb.nic.send = spy

    def body():
        result = yield stub.add(1, 2)
        return raise_if_error(result)

    run_client(kernel, body)
    assert Dscp.EF in sent_dscps


def test_raw_servant_dispatch():
    """Servants without IDL metadata use raw (args, kwargs) dispatch."""
    kernel = Kernel()
    _, _, client_orb, server_orb = rig(kernel)

    class RawService(Servant):
        def concat(self, *parts, sep="-"):
            return sep.join(parts)

    poa = server_orb.create_poa("raw")
    objref = poa.activate_object(RawService())

    from repro.orb.cdr import CdrInputStream, CdrOutputStream

    def body():
        out = CdrOutputStream()
        out.write_opaque(OpaquePayload((("a", "b"), {"sep": "+"}), nbytes=64))
        reply = yield client_orb.invoke(
            objref, "concat", out.getvalue(), opaques=out.opaques)
        raise_if_error(reply)
        inp = CdrInputStream(reply.body, reply.opaques)
        return inp.read_opaque().value

    assert run_client(kernel, body) == "a+b"


def test_many_concurrent_clients():
    kernel = Kernel()
    _, _, client_orb, server_orb = rig(kernel)
    poa = server_orb.create_poa("calc")
    objref = poa.activate_object(CalculatorServant())
    results = []

    def client(i):
        stub = CALC.stub_class(client_orb, objref)
        result = yield stub.add(i, i)
        results.append(raise_if_error(result))

    for i in range(20):
        Process(kernel, client(i), name=f"client-{i}")
    kernel.run()
    assert sorted(results) == [2 * i for i in range(20)]
