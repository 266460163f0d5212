"""Client-side failure handling: dead connections.

Regression suite for the hang bug: a request in flight when its
StreamConnection gave up (``MAX_CONSECUTIVE_RTOS`` unanswered RTOs)
used to wait forever if it had no explicit timeout — the reply could
never arrive, yet nothing failed the pending entry.  Connections now
report their death to the ORB, which fails every stranded request
with :class:`ConnectionClosed`.
"""

from repro.sim import Kernel
from repro.oskernel import Host
from repro.net import GuaranteedRateQueue, Network, StreamConnection
from repro.orb import (
    ConnectionClosed,
    Orb,
    RequestTimeout,
    compile_idl,
)

IDL = "interface Echo { long ping(in long n); };"
ECHO = compile_idl(IDL)["Echo"]


class EchoServant(ECHO.skeleton_class):
    def ping(self, n):
        return n


def rig(kernel):
    net = Network(kernel, default_bandwidth_bps=10e6)
    for name in ("client", "server"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")

    def q():
        return GuaranteedRateQueue(kernel)

    net.link("client", router, qdisc_a=q(), qdisc_b=q())
    link = net.link(router, "server", qdisc_a=q(), qdisc_b=q())
    net.compute_routes()
    orbs = {name: Orb(kernel, net.host(name), net) for name in
            ("client", "server")}
    poa = orbs["server"].create_poa("echo")
    objref = poa.activate_object(EchoServant())
    return orbs["client"], objref, link


def invoke(orb, objref, n=7, **kwargs):
    """One marshaled ping(n) through Orb.invoke; returns the Signal."""
    from repro.orb.cdr import CdrOutputStream

    out = CdrOutputStream()
    out.write_long(n)
    return orb.invoke(objref, "ping", out.getvalue(), **kwargs)


# ----------------------------------------------------------------------
# The hang regression
# ----------------------------------------------------------------------
def test_dead_connection_fails_pending_request_without_timeout():
    """No timeout, dead peer: the request must still conclude."""
    kernel = Kernel()
    orb, objref, link = rig(kernel)
    # Warm the connection with one successful call.
    first = []
    invoke(orb, objref).wait(first.append)
    kernel.run(until=1.0)
    assert not isinstance(first[0], BaseException)

    link.fail()  # permanently
    outcome = []
    invoke(orb, objref).wait(outcome.append)
    # The connection retries MAX_CONSECUTIVE_RTOS times with backoff,
    # then gives up and closes; well under a simulated minute.
    kernel.run(until=60.0)

    assert outcome, "request must not hang once the connection dies"
    assert isinstance(outcome[0], ConnectionClosed)
    assert orb.connection_failures == 1
    connection = next(iter(orb._connections.values()))
    assert connection.closed
    assert connection._consecutive_rtos > StreamConnection.MAX_CONSECUTIVE_RTOS


def test_dead_connection_fails_every_stranded_request():
    kernel = Kernel()
    orb, objref, link = rig(kernel)
    link.fail()
    outcomes = []
    for i in range(3):
        invoke(orb, objref, n=i).wait(outcomes.append)
    kernel.run(until=60.0)
    assert len(outcomes) == 3
    assert all(isinstance(o, ConnectionClosed) for o in outcomes)
    assert orb.connection_failures == 3


def test_request_timeout_unaffected_by_close_cleanup():
    """A request that already timed out must not be double-fired."""
    kernel = Kernel()
    orb, objref, link = rig(kernel)
    link.fail()
    outcomes = []
    invoke(orb, objref, timeout=1.0).wait(outcomes.append)
    kernel.run(until=60.0)
    assert len(outcomes) == 1
    assert isinstance(outcomes[0], RequestTimeout)
    # It left _pending on timeout, so the close found nothing to fail.
    assert orb.connection_failures == 0
