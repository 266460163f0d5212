"""RSVP teardown: TEAR re-send hardening, and no timers left behind.

Regression suite for the lost-TEAR bug: a single dropped TEAR used to
strand ``reserved_rate`` (and the installed token bucket) at transit
routers forever, silently eating admission capacity.  Teardown now
re-sends its TEAR a bounded number of times.  Installed state is hard
(nothing refreshes or expires it), so an established reservation
leaves no timer behind.
"""

import random

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import FlowSpec, GuaranteedRateQueue, Network


def drop_everything_on(link):
    """Force 100 % wire loss (a down link merely queues packets)."""
    link.loss_probability = 1.0
    link.loss_rng = random.Random(0)


def clear_loss_on(link):
    link.loss_probability = 0.0
    link.loss_rng = None


def chain(kernel):
    """sender -- r1 -- r2 -- receiver, IntServ everywhere."""
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("sender", "receiver"):
        net.attach_host(Host(kernel, name))
    r1, r2 = net.add_router("r1"), net.add_router("r2")

    def q():
        return GuaranteedRateQueue(kernel, band_capacity=50)

    net.link("sender", r1, qdisc_a=q(), qdisc_b=q())
    net.link(r1, r2, qdisc_a=q(), qdisc_b=q())
    net.link(r2, "receiver", qdisc_a=q(), qdisc_b=q())
    net.compute_routes()
    net.enable_intserv()
    return net, r1, r2


def establish(kernel, net, flow_id="video", rate=1.2e6):
    net.nic_of("sender").rsvp_agent.announce_path(flow_id, "receiver")
    kernel.run(until=kernel.now + 0.1)
    reservation = net.nic_of("receiver").rsvp_agent.reserve(
        flow_id, FlowSpec(rate, 20_000))
    kernel.run(until=kernel.now + 0.5)
    assert reservation.is_established
    return reservation


def booked_anywhere(net, r1, r2, flow_id="video"):
    """True if any transit router still holds bucket or booked rate."""
    for router in (r1, r2):
        egress = router.egress_for("receiver")
        if flow_id in egress.qdisc.reserved_flows():
            return True
        if router.rsvp_agent.reserved_rate(egress) > 0:
            return True
    return False


# ----------------------------------------------------------------------
# The lost-TEAR regression (refresh not required)
# ----------------------------------------------------------------------
def test_single_lost_tear_repaired_by_resend():
    """One dropped TEAR must no longer strand reserved_rate forever."""
    kernel = Kernel()
    net, r1, r2 = chain(kernel)
    establish(kernel, net)
    assert booked_anywhere(net, r1, r2)

    # Lose the first TEAR on the wire; the loss clears before the
    # first re-send (0.5 s later).
    link = net.link_between(r2, "receiver")
    drop_everything_on(link)
    net.nic_of("receiver").rsvp_agent.teardown("video")
    kernel.schedule(0.3, clear_loss_on, link)
    kernel.run(until=kernel.now + 2.0)

    assert link.packets_lost >= 1  # the first TEAR really was lost
    assert not booked_anywhere(net, r1, r2)
    # The sender's own egress policing is released too.
    sender_iface = net.nic_of("sender").interface
    assert "video" not in sender_iface.qdisc.reserved_flows()


def test_teardown_still_works_unimpeded():
    kernel = Kernel()
    net, r1, r2 = chain(kernel)
    establish(kernel, net)
    net.nic_of("receiver").rsvp_agent.teardown("video")
    kernel.run(until=kernel.now + 2.0)
    assert not booked_anywhere(net, r1, r2)


def test_capacity_freed_after_lossy_teardown():
    """The reclaimed rate must be admittable again."""
    kernel = Kernel()
    net, r1, r2 = chain(kernel)
    establish(kernel, net, flow_id="flow-1", rate=8e6)

    link = net.link_between(r2, "receiver")
    drop_everything_on(link)
    net.nic_of("receiver").rsvp_agent.teardown("flow-1")
    kernel.schedule(0.3, clear_loss_on, link)
    kernel.run(until=kernel.now + 2.0)

    second = establish(kernel, net, flow_id="flow-2", rate=8e6)
    assert second.is_established


# ----------------------------------------------------------------------
# No soft-state timers
# ----------------------------------------------------------------------
def test_no_refresh_means_no_expiry_timers():
    """Agents must not keep the event heap alive: open-ended
    kernel.run() calls in older tests depend on it."""
    kernel = Kernel()
    net, r1, r2 = chain(kernel)
    establish(kernel, net)
    # Drains completely instead of ticking refresh timers forever.
    kernel.run()
    assert booked_anywhere(net, r1, r2)
