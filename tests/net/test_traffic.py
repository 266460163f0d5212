"""CbrTrafficSource: stop() / start() from inside a send."""

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import Network
from repro.net.traffic import CbrTrafficSource


def cbr_rig(kernel):
    net = Network(kernel, default_bandwidth_bps=100e6)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    net.link("a", "b")
    net.compute_routes()
    nic = net.nic_of("a")
    # 1 Mbps of 1000 B payloads: one send every 8.32 ms, 120 in 1 s.
    return nic, CbrTrafficSource(kernel, nic, "b", 1e6, packet_bytes=1000)


def on_nth_send(nic, source, n, action):
    """Run ``action()`` inside ``nic.send`` of the source's n-th packet."""
    send = nic.send

    def wrapped(packet):
        accepted = send(packet)
        if source.packets_sent == n:
            action()
        return accepted

    nic.send = wrapped


def test_cbr_restarted_inside_a_send_keeps_one_chain():
    """stop(); start() inside the 5th send: start() arms a fresh
    emission, and the emission in hand must arm nothing more."""
    kernel = Kernel()
    nic, source = cbr_rig(kernel)

    def restart():
        source.stop()
        source.start()

    on_nth_send(nic, source, 5, restart)
    source.start()
    kernel.run(until=1.0)
    assert source.packets_sent == 120
    assert kernel.pending() == 1


def test_cbr_stopped_inside_a_send_sends_nothing_more():
    kernel = Kernel()
    nic, source = cbr_rig(kernel)
    on_nth_send(nic, source, 5, source.stop)
    source.start()
    kernel.run(until=1.0)
    assert source.packets_sent == 5
    source.start()  # a later restart resumes a single cadence
    kernel.run(until=2.0)
    assert source.packets_sent == 5 + 120
