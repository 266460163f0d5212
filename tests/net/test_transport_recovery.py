"""StreamConnection recovery-state audit, driven by injected faults.

The failure-path sweep found three pieces of recovery state that went
stale across an outage; each has a regression here:

* ``_dup_acks`` survived an RTO, so stale duplicate counts could fire
  a spurious fast retransmit right after timeout recovery;
* ``_rto`` stayed fully backed off (up to ``MAX_RTO``) forever when no
  clean RTT sample ever completed (every ack ambiguous under Karn);
* ``_consecutive_rtos`` ignored duplicate acks, so a live-but-lossy
  peer could still trip the give-up threshold.
"""

import random

from repro.sim import Kernel
from repro.sim.rng import RngRegistry
from repro.oskernel import Host
from repro.net import Network, StreamConnection, StreamListener
from repro.net.transport import _Segment
from repro.faults import FaultEvent, FaultInjector, FaultPlan


def rig(kernel):
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("client", "server"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    net.link("client", router)
    net.link(router, "server")
    net.compute_routes()
    got = []
    StreamListener(kernel, net.nic_of("server"), port=2809,
                   on_message=lambda payload, meta: got.append(payload))
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    return net, conn, got


# ----------------------------------------------------------------------
# Loss-burst-driven end-to-end recovery
# ----------------------------------------------------------------------
def test_recovery_state_clean_after_loss_burst_fault():
    """Deliver through a 50 % loss burst; afterwards every piece of
    loss-recovery state must be back to a healthy steady state."""
    kernel = Kernel()
    net, conn, got = rig(kernel)
    FaultInjector(kernel, net,
                  rng=RngRegistry(seed=1).stream("faults")).install(
        FaultPlan([FaultEvent("loss_burst", link=["r", "server"],
                              at=1.0, duration=2.0, loss=0.5)]))
    for i in range(60):
        kernel.schedule(0.1 * i, conn.send_message, i, 1200)
    kernel.run(until=30.0)

    assert got == list(range(60))  # reliable and in order, through it
    assert conn.retransmissions > 0
    # Post-burst steady state: nothing left over from loss recovery.
    assert conn.outstanding == 0
    assert conn._dup_acks == 0
    assert conn._consecutive_rtos == 0
    assert not conn.closed
    # The RTO has been re-derived from live RTT samples, not left at
    # the backed-off ceiling the burst drove it to.
    assert conn._srtt is not None
    assert conn._rto < StreamConnection.MAX_RTO / 2


def test_connection_survives_burst_worse_than_clean_rto_budget():
    """A burst long enough to cause many consecutive RTOs must not
    trip the give-up threshold as long as acks eventually flow."""
    kernel = Kernel()
    net, conn, got = rig(kernel)
    FaultInjector(kernel, net,
                  rng=RngRegistry(seed=3).stream("faults")).install(
        FaultPlan([FaultEvent("loss_burst", link=["r", "server"],
                              at=0.5, duration=4.0, loss=0.9)]))
    for i in range(10):
        kernel.schedule(0.2 * i, conn.send_message, i, 800)
    kernel.run(until=60.0)
    assert not conn.closed
    assert got == list(range(10))


# ----------------------------------------------------------------------
# Unit-level state transitions
# ----------------------------------------------------------------------
def test_rto_resets_dup_ack_count():
    kernel = Kernel()
    net, conn, _ = rig(kernel)
    conn.send_message("x", payload_bytes=100)
    conn._dup_acks = 2  # stale pre-timeout duplicates
    conn._on_rto()
    assert conn._dup_acks == 0


def test_duplicate_ack_resets_consecutive_rtos():
    kernel = Kernel()
    net, conn, _ = rig(kernel)
    conn._in_flight[0] = _Segment(seq=0, nbytes=10)
    conn._consecutive_rtos = 7
    conn._handle_ack(0)  # duplicate: proves the peer is alive
    assert conn._consecutive_rtos == 0
    assert conn._dup_acks == 1


def test_advancing_ack_without_rtt_sample_restores_initial_rto():
    """Karn-ambiguous recovery: if no clean sample ever completed, the
    first advance must fall back to INITIAL_RTO, not keep MAX_RTO."""
    kernel = Kernel()
    net, conn, _ = rig(kernel)
    segment = _Segment(seq=0, nbytes=10)
    segment.retransmitted = True
    conn._in_flight[0] = segment
    conn._rto = StreamConnection.MAX_RTO  # fully backed off
    assert conn._srtt is None
    conn._handle_ack(1)
    assert conn._rto == StreamConnection.INITIAL_RTO


def test_advancing_ack_with_history_restores_estimated_rto():
    kernel = Kernel()
    net, conn, _ = rig(kernel)
    conn._srtt, conn._rttvar = 0.05, 0.01  # estimate above MIN_RTO
    segment = _Segment(seq=0, nbytes=10)
    segment.retransmitted = True
    conn._in_flight[0] = segment
    conn._rto = StreamConnection.MAX_RTO
    conn._handle_ack(1)
    assert conn._rto == 0.05 + 4 * 0.01


def test_give_up_requires_consecutive_silence():
    """MAX_CONSECUTIVE_RTOS only trips when *nothing* answers."""
    kernel = Kernel()
    net, conn, _ = rig(kernel)
    conn._in_flight[0] = _Segment(seq=0, nbytes=10)
    for _ in range(StreamConnection.MAX_CONSECUTIVE_RTOS):
        conn._on_rto()
        assert not conn.closed
        conn._cancel_rto()
    # One sign of life resets the clock entirely.
    conn._handle_ack(0)
    for _ in range(StreamConnection.MAX_CONSECUTIVE_RTOS):
        conn._on_rto()
        assert not conn.closed
        conn._cancel_rto()
    conn._on_rto()  # the 13th consecutive silent RTO
    assert conn.closed


def test_dead_client_leaves_the_listener_port_to_the_others():
    """A server-side connection that gives up on its peer closes, but
    the port is the listener's: the server's other clients must still
    get through, and a later segment from the dead peer opens a fresh
    server-side connection."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("a", "b", "server"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    for name in ("a", "b", "server"):
        net.link(name, router)
    net.compute_routes()
    got = []
    accepted = []
    listener = StreamListener(
        kernel, net.nic_of("server"), port=2809,
        on_connection=accepted.append,
        on_message=lambda payload, meta: got.append(payload))
    a = StreamConnection.connect(kernel, net.nic_of("a"), "server", 2809)
    b = StreamConnection.connect(kernel, net.nic_of("b"), "server", 2809)
    a.send_message("a-hello", 100)
    b.send_message("b-hello", 100)
    kernel.run(until=1.0)
    assert sorted(got) == ["a-hello", "b-hello"]
    to_a = next(conn for conn in accepted if conn.remote_host == "a")

    # a's access link dies while the server is talking to it.
    net.link_between("a", router).fail()
    to_a.send_message("to-a", 100)
    kernel.run(until=200.0)
    assert to_a.closed  # gave up after MAX_CONSECUTIVE_RTOS

    b.send_message("b-after", 100)
    kernel.run(until=210.0)
    assert got[-1] == "b-after"
    assert b.outstanding == 0 and b.retransmissions == 0
    assert ("a", a.local_port) not in listener.connections

    net.link_between("a", router).restore()
    a.send_message("a-again", 100)
    kernel.run(until=220.0)
    fresh = listener.connections[("a", a.local_port)]
    assert fresh is not to_a and not fresh.closed


def test_on_close_fires_exactly_once():
    kernel = Kernel()
    net, conn, _ = rig(kernel)
    closes = []
    conn.on_close = closes.append
    conn.close()
    conn.close()
    assert closes == [conn]


def test_listener_close_closes_each_server_connection():
    """StreamListener.close() closes every server-side connection through
    StreamConnection.close(): each on_close runs once, no timer is left
    and the listener keeps no dead entry."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("a", "b", "server"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    for name in ("a", "b", "server"):
        net.link(name, router)
    net.compute_routes()
    accepted = []
    listener = StreamListener(kernel, net.nic_of("server"), port=2809,
                              on_connection=accepted.append)
    for name in ("a", "b"):
        StreamConnection.connect(
            kernel, net.nic_of(name), "server", 2809).send_message(name, 100)
    kernel.run(until=1.0)
    assert len(accepted) == 2
    closes = []
    for conn in accepted:
        conn.send_message("reply", 5000)  # leaves an RTO pending
        conn.on_close = closes.append
    listener.close()
    assert closes == accepted
    assert listener.connections == {}
    assert all(conn.closed and conn._rto_event is None for conn in accepted)
