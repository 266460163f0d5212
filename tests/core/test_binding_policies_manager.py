"""Tests for the QoS policy value and the manager that applies it."""

import pytest

from repro.sim import Kernel
from repro.oskernel import EnforcementPolicy, Host, OsType
from repro.oskernel.reserve import AdmissionError
from repro.net import Dscp, Network
from repro.orb import Orb
from repro.core import EndToEndQoSManager, QosPolicy, QosPolicyError
from repro.experiments.priority_exp import run_priority_propagation


def rig(kernel):
    net = Network(kernel, default_bandwidth_bps=10e6)
    hosts = {}
    for name, os_type in (
        ("client", OsType.QNX),
        ("middle", OsType.LYNXOS),
        ("server", OsType.SOLARIS),
    ):
        hosts[name] = Host(kernel, name, os_type=os_type)
        net.attach_host(hosts[name])
    router = net.add_router("router")
    for name in hosts:
        net.link(name, router)
    net.compute_routes()
    orb = Orb(kernel, hosts["client"], net)
    return net, hosts, orb


class FakeStub:
    priority = None
    dscp = None


def test_binding_reproduces_figure2_chain():
    """CORBA priority 100 with custom mappings, applied by the manager
    and carried by a real two-hop call: QNX 16, LynxOS 128, Solaris 136,
    DSCP EF on the wire (the paper's Figure 2)."""
    hops = run_priority_propagation()["hops"]
    assert [h.host for h in hops] == ["client", "middle-tier", "server"]
    assert [h.native_priority for h in hops] == [16, 128, 136]
    assert [h.role for h in hops] == ["client", "server", "server"]
    assert all(h.dscp == Dscp.EF for h in hops)
    assert all(h.corba_priority == 100 for h in hops)


def test_binding_without_dscp():
    kernel = Kernel()
    _, hosts, orb = rig(kernel)
    manager = EndToEndQoSManager()
    policy = QosPolicy(100)
    assert manager.dscp(policy, orb) is None
    stub = FakeStub()
    manager.apply(policy, hosts["client"], orb=orb, stub=stub)
    assert stub.priority == 100
    assert stub.dscp is None


def test_binding_applies_thread_priority():
    kernel = Kernel()
    _, hosts, orb = rig(kernel)
    thread = hosts["client"].spawn_thread("app")
    EndToEndQoSManager().apply(QosPolicy(32767), hosts["client"],
                               thread=thread, orb=orb)
    assert thread.priority == 31  # top of QNX range


# ----------------------------------------------------------------------
# The policy value
# ----------------------------------------------------------------------
def test_priority_policy_validation():
    with pytest.raises(QosPolicyError):
        QosPolicy(-1)
    with pytest.raises(QosPolicyError):
        QosPolicy(40000)
    with pytest.raises(QosPolicyError):
        QosPolicy(dscp=True)  # marking maps a priority


def test_reservation_policy_validation():
    with pytest.raises(QosPolicyError):
        QosPolicy(cpu=(-1, 1))
    with pytest.raises(QosPolicyError):
        QosPolicy(cpu=(0.1, 0))
    with pytest.raises(QosPolicyError):
        QosPolicy(reservation=1.2e6)  # a rate is not a flowspec
    with pytest.raises(ValueError):
        QosPolicy.flow(0)
    policy = QosPolicy(cpu=(0.1, 1.0), reservation=QosPolicy.flow(1e6))
    assert policy.cpu == (0.1, 1.0)
    assert policy.reservation.rate_bps == 1e6


def test_reservation_bucket_defaults_once_and_rejects_zero():
    assert QosPolicy.flow(1e6).bucket_bytes == QosPolicy.BUCKET_BYTES
    assert QosPolicy.flow(1e6, 40_000).bucket_bytes == 40_000
    # A zero bucket is a mistake, not a request for the default.
    with pytest.raises(ValueError):
        QosPolicy.flow(1e6, bucket_bytes=0)


def test_default_policy_is_the_unmanaged_corner():
    policy = QosPolicy()
    assert policy.priority is None and not policy.dscp
    assert policy.cpu is None and policy.reservation is None


# ----------------------------------------------------------------------
# Manager
# ----------------------------------------------------------------------
def test_manager_applies_priority_to_stub_and_thread():
    kernel = Kernel()
    net, hosts, orb = rig(kernel)
    manager = EndToEndQoSManager()
    thread = hosts["client"].spawn_thread("app")
    stub = FakeStub()
    reserve = manager.apply(QosPolicy(32767, dscp=True), hosts["client"],
                            thread=thread, orb=orb, stub=stub)
    assert reserve is None
    assert stub.priority == 32767
    assert stub.dscp == Dscp.EF
    assert thread.priority == 31


def test_manager_leaves_an_unmanaged_thread_alone():
    kernel = Kernel()
    _, hosts, orb = rig(kernel)
    thread = hosts["client"].spawn_thread("app", priority=3)
    stub = FakeStub()
    assert EndToEndQoSManager().apply(
        QosPolicy(), hosts["client"], thread=thread, orb=orb,
        stub=stub) is None
    assert thread.priority == 3
    assert stub.priority is None and stub.dscp is None


def test_manager_native_priority_is_the_spawn_priority():
    kernel = Kernel()
    _, hosts, orb = rig(kernel)
    manager = EndToEndQoSManager()
    assert manager.native_priority(QosPolicy(), hosts["client"], orb) is None
    assert manager.native_priority(
        QosPolicy(32767), hosts["client"], orb) == 31


def test_manager_cpu_reserve():
    kernel = Kernel()
    net, hosts, _ = rig(kernel)
    thread = hosts["server"].spawn_thread("atr")
    policy = QosPolicy(cpu=(0.2, 1.0), enforcement=EnforcementPolicy.HARD)
    reserve = EndToEndQoSManager().apply(policy, hosts["server"],
                                         thread=thread)
    assert reserve is not None
    assert reserve.is_hard
    assert thread.reserve is reserve
    assert hosts["server"].reserve_manager.total_utilization == pytest.approx(0.2)


def test_manager_cpu_reserve_optional_failure_returns_none():
    kernel = Kernel()
    net, hosts, _ = rig(kernel)
    manager = EndToEndQoSManager()
    server = hosts["server"]
    manager.apply(QosPolicy(cpu=(0.89, 1.0)), server,
                  thread=server.spawn_thread("hog"))
    thread = server.spawn_thread("atr")
    optional = QosPolicy(cpu=(0.5, 1.0), mandatory=False)
    assert manager.apply(optional, server, thread=thread) is None
    with pytest.raises(AdmissionError):
        manager.apply(QosPolicy(cpu=(0.5, 1.0)), server, thread=thread)


def test_priority_driven_reservation_allocation():
    """Section 6: priorities decide who gets reserves when capacity is
    insufficient for everyone."""
    host = rig(Kernel())[1]["server"]
    threads = [host.spawn_thread(f"task{i}") for i in range(3)]
    requests = [
        (threads[0], QosPolicy(10000, cpu=(0.4, 1.0))),  # medium priority
        (threads[1], QosPolicy(30000, cpu=(0.4, 1.0))),  # high priority
        (threads[2], QosPolicy(100, cpu=(0.4, 1.0))),    # low priority
    ]
    results = EndToEndQoSManager().allocate_reservations(host, requests)
    # Capacity 0.9 fits two 0.4 reserves; the low-priority one loses.
    assert results[threads[1]] is not None
    assert results[threads[0]] is not None
    assert results[threads[2]] is None
    # The priority orders the grants; the threads keep their priorities.
    assert {thread.priority for thread in threads} == {
        host.priority_range[0]}


def test_allocation_without_priorities_keeps_arrival_order():
    host = rig(Kernel())[1]["server"]
    threads = [host.spawn_thread(f"task{i}") for i in range(3)]
    results = EndToEndQoSManager().allocate_reservations(
        host, [(thread, QosPolicy(cpu=(0.4, 1.0))) for thread in threads])
    assert [results[thread] is not None for thread in threads] == [
        True, True, False]


def test_allocation_reports_every_grant_of_same_named_threads():
    """Two threads with one name are two requests and two grants."""
    kernel = Kernel()
    host = Host(kernel, "h")
    a = host.spawn_thread("worker")
    b = host.spawn_thread("worker")
    results = EndToEndQoSManager().allocate_reservations(
        host, [(a, QosPolicy(1, cpu=(0.2, 1.0))),
               (b, QosPolicy(2, cpu=(0.2, 1.0)))])
    assert host.reserve_manager.total_utilization == pytest.approx(0.4)
    assert len(results) == 2
    assert results[a] is a.reserve and results[b] is b.reserve
