"""Runnable example scenarios, importable by the CLI and tests.

The ``examples/`` scripts are thin wrappers around these builders so
that ``repro trace`` (and the test-suite) can run the same scenarios
with a tracer attached and inspect the results programmatically.

Each builder stands on the :class:`~repro.experiments.testbed.Testbed`
like the figure scenarios and accepts:

``checks`` / ``tracer``
    Optional :class:`~repro.check.invariants.CheckSuite` and
    :class:`repro.obs.Tracer`, with the testbed's meaning.
``verbose``
    When True, print the narrative output the example scripts show.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict

from repro.sim import Process
from repro.net import Dscp
from repro.net.traffic import CbrTrafficSource
from repro.orb import Orb, compile_idl
from repro.orb.core import raise_if_error
from repro.quo import Contract, Qosket, Region, ValueSC
from repro.media import FrameFilter, MpegStream
from repro.avstreams import StreamCtrl
from repro.core import FrameFilteringQosket, QosPolicy
from repro.experiments.actors import (
    AvVideoReceiver,
    AvVideoSender,
    VideoDistributor,
)
from repro.experiments.testbed import Testbed

# ----------------------------------------------------------------------
# Quickstart: one CORBA call path plus a QuO re-marking contract
# ----------------------------------------------------------------------
_QUICKSTART_IDL = """
module Quickstart {
    interface RangeFinder {
        double distance(in double bearing);
    };
};
"""
_RANGE_FINDER = compile_idl(_QUICKSTART_IDL)["Quickstart::RangeFinder"]


class _RangeFinderServant(_RANGE_FINDER.skeleton_class):
    def distance(self, bearing):
        return 1000.0 + 10.0 * bearing


def run_quickstart(
    checks=None, tracer=None, verbose: bool = True
) -> Dict[str, Any]:
    """Two hosts, one router, one servant; a contract flips the DSCP.

    Returns a dict with the kernel, the contract, and the recorded
    ``calls``: (bearing, result, rtt_seconds, dscp_name) tuples.
    """
    bed = Testbed(checks=checks, tracer=tracer)
    kernel = bed.kernel
    net = bed.build_network(10e6)
    client_host = bed.host("operator-station")
    server_host = bed.host("sensor-platform")
    router = net.add_router("router")
    net.link(client_host, router)
    net.link(router, server_host)
    net.compute_routes()

    client_orb = Orb(kernel, client_host, net)
    server_orb = Orb(kernel, server_host, net)
    poa = server_orb.create_poa("sensors")
    objref = poa.activate_object(_RangeFinderServant())
    if verbose:
        print(f"activated: {objref.corbaloc()}")

    stub = _RANGE_FINDER.stub_class(client_orb, objref)

    loss = ValueSC(kernel, "loss", initial=0.0)
    contract = Contract(kernel, "network-health", regions=[
        Region("congested", lambda s: s["loss"] > 0.05),
        Region("clear"),
    ])
    bed.watch(contracts=[contract])

    def protect(delegate, operation, args, proceed):
        delegate.stub.dscp = Dscp.EF
        return proceed(*args)

    qosket = Qosket(kernel, contract, conditions=[loss],
                    behaviors={"congested": protect})
    qosket.start()
    range_finder = qosket.apply(stub)

    calls = []

    def app():
        for bearing in (0.0, 45.0, 90.0):
            started = kernel.now
            result = yield range_finder.distance(bearing)
            raise_if_error(result)
            rtt = kernel.now - started
            dscp_name = stub.dscp.name if stub.dscp else "BE"
            calls.append((bearing, result, rtt, dscp_name))
            if verbose:
                print(f"t={kernel.now * 1e3:7.3f}ms  "
                      f"distance({bearing:5.1f}) = {result:7.1f}  "
                      f"(rtt {rtt * 1e3:.3f} ms, dscp={dscp_name})")
            if bearing == 45.0:
                if verbose:
                    print("-- congestion detected; contract re-marks "
                          "traffic --")
                loss.set(0.2)

    Process(kernel, app(), name="quickstart-app")
    bed.run()
    if verbose:
        print(f"done at simulated t={kernel.now * 1e3:.3f} ms; "
              f"contract region: {contract.current_region}")
    return {
        "kernel": kernel,
        "contract": contract,
        "calls": calls,
    }


# ----------------------------------------------------------------------
# UAV video pipeline (the paper's Figure 3 application)
# ----------------------------------------------------------------------
def _build_uav_network(bed: Testbed):
    """The Figure 3 shape: a sensor-side segment and a station-side
    segment bridged by the multi-homed distributor host (uplinks from
    the UAVs are slower 'wireless' links)."""
    net = bed.build_network(10e6)
    for name in ("uav1", "uav2", "distributor", "display1", "display2",
                 "loadgen"):
        bed.host(name)
    r1, r2 = net.add_router("router1"), net.add_router("router2")

    def q():
        return bed.queue(band_capacity=150)

    net.link("uav1", r1, bandwidth_bps=5e6, qdisc_a=q(), qdisc_b=q())
    net.link("uav2", r1, bandwidth_bps=5e6, qdisc_a=q(), qdisc_b=q())
    net.link(r1, "distributor", qdisc_a=q(), qdisc_b=q())
    net.link("distributor", r2, qdisc_a=q(), qdisc_b=q())
    net.link("loadgen", r2, bandwidth_bps=100e6, qdisc_a=q(), qdisc_b=q())
    net.link(r2, "display1", qdisc_a=q(), qdisc_b=q())
    net.link(r2, "display2", qdisc_a=q(), qdisc_b=q())
    net.compute_routes()
    net.enable_intserv()
    return net


def run_uav_pipeline(
    duration: float = 60.0,
    seed: int = 42,
    checks=None,
    tracer=None,
    verbose: bool = True,
    burst_start: float = 20.0,
    burst_stop: float = 40.0,
) -> Dict[str, Any]:
    """Two UAV streams through a distributor; one reserved, one adaptive.

    Returns a dict with the kernel and the data-plane ``actors``
    (senders, distributors, receivers, the filtering qosket).
    """
    bed = Testbed(seed, checks, tracer)
    kernel, rng = bed.kernel, bed.rng
    net = _build_uav_network(bed)
    bed.av_endpoints(name for name in bed.hosts if name != "loadgen")
    devices, refs = bed.devices, bed.refs
    bed.watch()

    ctrl = StreamCtrl(kernel, bed.orbs["distributor"])
    actors: Dict[str, Any] = {}

    reserved = QosPolicy(reservation=QosPolicy.flow(1.4e6))

    def setup():
        # UAV 1 -> distributor with a full RSVP reservation; the onward
        # leg to display1 is reserved too.  UAV 2 -> distributor ->
        # display2 is best effort + adaptation.
        for name, src, dst, policy in (
                ("uav1-in", "uav1", "distributor", reserved),
                ("uav1-out", "distributor", "display1", reserved),
                ("uav2-in", "uav2", "distributor", QosPolicy()),
                ("uav2-out", "distributor", "display2", QosPolicy())):
            yield from bed.qos.open_stream(name, policy, ctrl, refs[src],
                                           refs[dst])

        stream1 = MpegStream("uav1", rng=rng.stream("uav1"))
        sender1 = AvVideoSender(
            kernel, devices["uav1"].producer("uav1-in"), stream1)
        filter2 = FrameFilter()
        qosket2 = FrameFilteringQosket(kernel, filter2,
                                       degrade_threshold=0.05)
        bed.world.add_contract(qosket2.contract)
        stream2 = MpegStream("uav2", rng=rng.stream("uav2"))
        sender2 = AvVideoSender(
            kernel, devices["uav2"].producer("uav2-in"), stream2,
            frame_filter=filter2, qosket=qosket2)

        dist1 = VideoDistributor(
            kernel, devices["distributor"].consumer("uav1-in"),
            outputs=[devices["distributor"].producer("uav1-out")])
        dist2 = VideoDistributor(
            kernel, devices["distributor"].consumer("uav2-in"),
            outputs=[devices["distributor"].producer("uav2-out")])

        receiver1 = AvVideoReceiver(
            kernel, devices["display1"].consumer("uav1-out"), sender1)
        receiver2 = AvVideoReceiver(
            kernel, devices["display2"].consumer("uav2-out"), sender2)

        sender1.start()
        sender2.start()
        actors.update(sender1=sender1, sender2=sender2, dist1=dist1,
                      dist2=dist2, receiver1=receiver1, receiver2=receiver2,
                      qosket2=qosket2)

    Process(kernel, setup(), name="setup")

    # A 30 Mbps burst toward the stations mid-run.
    burst = CbrTrafficSource(kernel, net.nic_of("loadgen"), "display2",
                             rate_bps=30e6)
    kernel.schedule(burst_start, burst.start)
    kernel.schedule(burst_stop, burst.stop)

    if verbose:
        print(f"running {duration:.0f} s of simulated mission time ...")
    bed.run(until=duration)

    if verbose:
        print("\n--- stream 1 (reserved end-to-end) ---")
        r1 = actors["receiver1"]
        print(f"frames delivered: {r1.delivery.received_count()} "
              f"of {r1.delivery.sent_count()} sent")
        stats = r1.delivery.latency.stats()
        print(f"latency: mean {stats.mean * 1e3:.1f} ms, "
              f"std {stats.std * 1e3:.1f} ms")

        print("\n--- stream 2 (best effort + QuO frame filtering) ---")
        r2 = actors["receiver2"]
        s2 = actors["sender2"]
        print(f"frames generated: {s2.frames_generated}, "
              f"sent after filtering: {r2.delivery.sent_count()}, "
              f"delivered: {r2.delivery.received_count()}")
        print(f"received by type: {dict(Counter(r2.frame_types))}")
        print("contract transitions:")
        for transition in actors["qosket2"].contract.transitions:
            print(f"  t={transition.time:6.2f}s  "
                  f"{transition.from_region} -> {transition.to_region}")
    return {
        "kernel": kernel,
        "net": net,
        "actors": actors,
    }


#: The example builders, by the name ``repro trace --scenario`` takes.
EXAMPLES = {"quickstart": run_quickstart, "uav": run_uav_pipeline}
