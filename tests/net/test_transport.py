"""Tests for datagram sockets and reliable streams, including loss."""

import pytest

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import (
    CbrTrafficSource,
    DatagramSocket,
    Dscp,
    FifoQueue,
    Network,
    StreamConnection,
    StreamListener,
)


def star(kernel, names, bandwidth=10e6, qdiscs=None):
    net = Network(kernel, default_bandwidth_bps=bandwidth)
    for name in names:
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    for name in names:
        q = (qdiscs or {}).get(name)
        net.link(name, router, qdisc_b=q)  # qdisc_b: router -> host leg
    net.compute_routes()
    return net, router


def test_stream_single_small_message():
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    got = []
    StreamListener(kernel, net.nic_of("server"), port=2809,
                   on_message=lambda payload, meta: got.append((payload, meta)))
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    conn.send_message("ping", payload_bytes=100)
    kernel.run()
    assert len(got) == 1
    payload, meta = got[0]
    assert payload == "ping"
    assert meta.size_bytes == 100
    assert meta.latency > 0


def test_stream_large_message_fragments():
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    got = []
    StreamListener(kernel, net.nic_of("server"), port=2809,
                   on_message=lambda payload, meta: got.append(meta))
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    conn.send_message("big", payload_bytes=10_000)
    kernel.run()
    assert conn.segments_sent >= 7  # ceil(10000/1500)
    assert len(got) == 1
    assert got[0].size_bytes == 10_000


def test_stream_many_messages_in_order():
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    got = []
    StreamListener(kernel, net.nic_of("server"), port=2809,
                   on_message=lambda payload, meta: got.append(payload))
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    for i in range(50):
        conn.send_message(i, payload_bytes=4000)
    kernel.run()
    assert got == list(range(50))
    assert conn.messages_delivered == 0  # delivery counted on server side


def test_stream_bidirectional_reply():
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    got_reply = []

    server_conns = []

    def on_server_message(payload, meta):
        server_conns[0].send_message(f"re:{payload}", payload_bytes=50)

    StreamListener(kernel, net.nic_of("server"), port=2809,
                   on_connection=server_conns.append,
                   on_message=on_server_message)
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809,
        on_message=lambda payload, meta: got_reply.append(payload))
    conn.send_message("hello", payload_bytes=50)
    kernel.run()
    assert got_reply == ["re:hello"]


def test_stream_recovers_from_loss():
    """Messages must arrive despite drops; latency shows retransmits."""
    kernel = Kernel()
    # Tiny router->server queue + heavy cross traffic => drops.
    qdiscs = {"server": FifoQueue(capacity=5)}
    net, router = star(kernel, ["client", "server", "noise"],
                       bandwidth=1e6, qdiscs=qdiscs)
    got = []
    StreamListener(kernel, net.nic_of("server"), port=2809,
                   on_message=lambda payload, meta: got.append(meta))
    noise = CbrTrafficSource(
        kernel, net.nic_of("noise"), "server", rate_bps=2e6)
    noise.run_for(5.0)
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    for i in range(20):
        kernel.schedule(0.1 * i, conn.send_message, i, 500)
    kernel.run(until=60.0)
    assert len(got) == 20, "reliable stream must deliver every message"
    assert conn.retransmissions > 0
    # Some messages should show inflated latency from recovery.
    assert max(m.latency for m in got) > 0.1


def test_stream_dscp_marks_packets():
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    seen_dscp = []
    original_send = net.nic_of("client").send

    def spy(packet):
        seen_dscp.append(packet.dscp)
        return original_send(packet)

    net.nic_of("client").send = spy
    StreamListener(kernel, net.nic_of("server"), port=2809)
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809, dscp=Dscp.EF)
    conn.send_message("x", payload_bytes=100)
    kernel.run()
    assert seen_dscp and all(d == Dscp.EF for d in seen_dscp)


def test_congestion_window_limits_in_flight():
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    StreamListener(kernel, net.nic_of("server"), port=2809)
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    # 100 chunks of one message; slow start admits only the initial
    # congestion window up front, growing as acks return.
    conn.send_message("bulk", payload_bytes=150_000)
    assert conn.outstanding == StreamConnection.INITIAL_CWND
    kernel.run()
    assert conn.outstanding == 0
    assert conn._cwnd > StreamConnection.INITIAL_CWND  # slow start grew


def test_window_hard_cap_respected():
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    StreamListener(kernel, net.nic_of("server"), port=2809)
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    conn._cwnd = 10 * StreamConnection.WINDOW  # absurd growth
    conn.send_message("bulk", payload_bytes=400_000)
    assert conn.outstanding <= StreamConnection.WINDOW


def test_stream_send_after_close_rejected():
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    StreamListener(kernel, net.nic_of("server"), port=2809)
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    conn.close()
    with pytest.raises(RuntimeError):
        conn.send_message("x", payload_bytes=10)


def test_datagram_refuses_a_negative_size_and_sends_a_zero_one():
    """A negative size would serialize in negative time: queued behind
    two 1 000-byte datagrams it moved the clock backwards and let the
    second datagram arrive before it had finished transmitting."""
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    got = []
    DatagramSocket(kernel, net.nic_of("server"), port=7,
                   on_receive=lambda payload, pkt: got.append(payload))
    sender = DatagramSocket(kernel, net.nic_of("client"))
    sender.send_to("server", 7, "a", 1000)
    sender.send_to("server", 7, "b", 1000)
    with pytest.raises(ValueError):
        sender.send_to("server", 7, "c", -900)
    assert sender.send_to("server", 7, "d", 0)
    kernel.run()
    assert sender.sent == 3
    assert got == ["a", "b", "d"]


def test_stream_refuses_a_negative_size_and_sends_a_zero_one():
    kernel = Kernel()
    net, _ = star(kernel, ["client", "server"])
    got = []
    StreamListener(kernel, net.nic_of("server"), port=2809,
                   on_message=lambda payload, meta: got.append(
                       (payload, meta.size_bytes)))
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    with pytest.raises(ValueError):
        conn.send_message("x", payload_bytes=-900)
    assert conn.messages_sent == 0 and conn.send_depth == 0
    conn.send_message("empty", payload_bytes=0)
    kernel.run()
    assert got == [("empty", 0)]
    assert conn.segments_sent == 1


def test_datagram_no_delivery_guarantee_under_congestion():
    kernel = Kernel()
    qdiscs = {"server": FifoQueue(capacity=3)}
    net, _ = star(kernel, ["client", "server", "noise"],
                  bandwidth=1e6, qdiscs=qdiscs)
    got = []
    DatagramSocket(kernel, net.nic_of("server"), port=7,
                   on_receive=lambda payload, pkt: got.append(payload))
    noise = CbrTrafficSource(kernel, net.nic_of("noise"), "server",
                             rate_bps=5e6)
    noise.run_for(2.0)
    sender = DatagramSocket(kernel, net.nic_of("client"))
    for i in range(100):
        kernel.schedule(0.01 * i, sender.send_to, "server", 7, i, 1000)
    kernel.run(until=10.0)
    assert len(got) < 100  # losses happened
    assert got == sorted(got)  # but ordering preserved on one path


def test_cbr_source_rate():
    kernel = Kernel()
    net, _ = star(kernel, ["a", "b"], bandwidth=100e6)
    source = CbrTrafficSource(kernel, net.nic_of("a"), "b",
                              rate_bps=8e6, packet_bytes=1460)
    source.run_for(1.0)
    kernel.run(until=1.1)
    # 8 Mbps with 1500 B packets on the wire ~= 666 packets/s.
    assert source.packets_sent == pytest.approx(666, abs=5)


# ----------------------------------------------------------------------
# The retransmission timer: restarted per ACK, never re-created
# ----------------------------------------------------------------------
#: The table 2 image: about 200 MSS segments, each one ACKed.
IMAGE_BYTES = 300_060


class CancelScheduleKernel(Kernel):
    """A kernel whose ``restart`` is the cancel() + schedule() it
    replaces: every restart leaves a tombstone."""

    def restart(self, event, delay, *args):
        event.cancel()
        return self.schedule(delay, event.callback, *args)


def image_transfer(kernel_class=Kernel, cut_at=None):
    """One image over one 100 Mbps link; per advancing ACK the tombstone
    count with data still outstanding, every RTO firing as (time,
    retransmissions so far) and the deadline of every restart."""
    kernel = kernel_class()
    net = Network(kernel, default_bandwidth_bps=100e6)
    for name in ("client", "server"):
        net.attach_host(Host(kernel, name))
    link = net.link("client", "server")
    net.compute_routes()
    got = []
    StreamListener(kernel, net.nic_of("server"), port=2809,
                   on_message=lambda payload, meta: got.append(payload))
    conn = StreamConnection.connect(
        kernel, net.nic_of("client"), "server", 2809)
    stale, rtos, deadlines = [], [], []

    handle_ack = conn._handle_ack

    def on_ack(ack_seq):
        handle_ack(ack_seq)
        if conn.outstanding:
            stale.append(kernel._stale)

    on_rto = conn._on_rto

    def on_timeout():
        rtos.append((kernel.now, conn.retransmissions))
        on_rto()

    restart = kernel.restart

    def traced_restart(event, delay, *args):
        deadlines.append(kernel.now + delay)
        return restart(event, delay, *args)

    conn._handle_ack = on_ack
    conn._on_rto = on_timeout
    kernel.restart = traced_restart
    conn.send_message("image", IMAGE_BYTES)
    if cut_at is not None:
        kernel.schedule(cut_at, link.fail)
    kernel.run(until=3.0)
    return kernel, conn, got, stale, rtos, deadlines


def test_ack_clocked_image_leaves_no_tombstones():
    """Each advancing ACK moves the one pending timer.  The single
    tombstone is the initial 200 ms timer, which the first RTT sample
    pulls in to MIN_RTO: an earlier deadline, so the kernel falls back
    to tombstone + fresh push for it.  cancel() + schedule() leaves one
    per ACK instead."""
    kernel, conn, got, stale, _, deadlines = image_transfer()
    assert got == ["image"]
    assert len(stale) > 150
    assert max(stale) <= 1
    assert kernel.compactions == 0
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (0, 0, 0)

    old = image_transfer(CancelScheduleKernel)
    assert old[2] == got and max(old[3]) > 100
    assert old[5] == deadlines
    assert old[0].events_executed == kernel.events_executed


def test_rto_after_a_cut_fires_at_the_last_restart_deadline():
    """The path dies mid-transfer: the timer fires at the last restart's
    now + rto, and backs off from there exactly as a timer rebuilt by
    cancel() + schedule() on every ACK does."""
    kernel, conn, got, _, rtos, deadlines = image_transfer(cut_at=0.02)
    assert got == []
    assert len(rtos) >= 3
    assert rtos[0] == (deadlines[-1], 0)
    assert all(count == i for i, (_, count) in enumerate(rtos))

    old_kernel, old_conn, _, _, old_rtos, old_deadlines = image_transfer(
        CancelScheduleKernel, cut_at=0.02)
    assert old_rtos == rtos and old_deadlines == deadlines
    assert old_conn.retransmissions == conn.retransmissions
    assert old_kernel.events_executed == kernel.events_executed
