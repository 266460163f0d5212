#!/usr/bin/env python
"""Figure 2, live: one CORBA priority propagated end-to-end.

The fig 2 scenario (:func:`repro.experiments.priority_exp.run_priority_propagation`,
what ``repro run fig2`` renders) reads the chain off the priority
mappings without running the kernel.  This script prints that
prediction and then checks it live: on the same three-OS chain (QNX
client, LynxOS middle tier, Solaris server) with the scenario's
``Figure2Mapping`` installed it makes a real two-hop CORBA call,
verifying at each hop that the dispatching thread assumed the mapped
native priority and that every wire segment carried DSCP EF.

Run:  python examples/priority_propagation.py
"""

from repro.sim import Kernel, Process
from repro.oskernel import Host, OsType
from repro.net import Dscp, Network
from repro.orb import Orb, compile_idl
from repro.orb.core import raise_if_error
from repro.orb.rt import DscpMapping, PriorityBand
from repro.core import EndToEndQoSManager, QosPolicy
from repro.experiments.priority_exp import (
    Figure2Mapping,
    run_priority_propagation,
)
from repro.experiments.reporting import render_figure2


IDL = """
module Fig2 {
    interface Relay { long process(in long value); };
    interface Sink  { long compute(in long value); };
};
"""
INTERFACES = compile_idl(IDL)
RELAY, SINK = INTERFACES["Fig2::Relay"], INTERFACES["Fig2::Sink"]


def main():
    kernel = Kernel()
    client = Host(kernel, "client", os_type=OsType.QNX)
    middle = Host(kernel, "middle-tier", os_type=OsType.LYNXOS)
    server = Host(kernel, "server", os_type=OsType.SOLARIS)
    net = Network(kernel)
    for host in (client, middle, server):
        net.attach_host(host)
    r1, r2 = net.add_router("router1"), net.add_router("router2")
    net.link(client, r1)
    net.link(r1, middle)
    net.link(r1, r2)
    net.link(r2, server)
    net.compute_routes()

    orbs = {
        host.name: Orb(kernel, host, net)
        for host in (client, middle, server)
    }
    for orb in orbs.values():
        orb.mapping_manager.install_native_mapping(Figure2Mapping())
        orb.mapping_manager.install_dscp_mapping(DscpMapping(
            [PriorityBand(0, Dscp.BE), PriorityBand(100, Dscp.EF)]))
        orb.map_priority_to_dscp = True

    observed = {}

    class SinkServant(SINK.skeleton_class):
        def compute(self, value):
            thread = orbs["server"].current_dispatch_thread
            observed["server"] = thread.priority
            return value * 2

    sink_poa = orbs["server"].create_poa("sink")
    sink_ref = sink_poa.activate_object(SinkServant())

    class RelayServant(RELAY.skeleton_class):
        """Middle tier: re-invokes downstream at the same priority."""

        def process(self, value):
            thread = orbs["middle-tier"].current_dispatch_thread
            observed["middle-tier"] = thread.priority
            stub = SINK.stub_class(orbs["middle-tier"], sink_ref,
                                   priority=100)
            reply = yield stub.compute(value + 1)
            return raise_if_error(reply)

    relay_poa = orbs["middle-tier"].create_poa("relay")
    relay_ref = relay_poa.activate_object(RelayServant())

    # Spy on every NIC to collect the DSCPs actually on the wire.
    wire_dscps = []
    for orb in orbs.values():
        original = orb.nic.send

        def spy(packet, _original=original):
            wire_dscps.append(packet.dscp)
            return _original(packet)

        orb.nic.send = spy

    # One policy, applied by the manager: the client thread's native
    # priority, and the stub's CORBA priority and DSCP.
    app_thread = client.spawn_thread("app")
    stub = RELAY.stub_class(orbs["client"], relay_ref, thread=app_thread)
    EndToEndQoSManager().apply(QosPolicy(100, dscp=True), client,
                               thread=app_thread, orb=orbs["client"],
                               stub=stub)
    observed["client"] = app_thread.priority

    def app():
        reply = yield stub.process(20)
        print(f"call returned {raise_if_error(reply)} "
              f"at t={kernel.now * 1e3:.3f} ms\n")

    Process(kernel, app(), name="fig2-app")
    kernel.run()

    print("predicted propagation chain (EndToEndQoSManager.describe):")
    print(render_figure2(run_priority_propagation()))
    print("\nobserved native priorities during dispatch:")
    for host_name in ("client", "middle-tier", "server"):
        print(f"  {host_name:12s}: {observed[host_name]}")
    marked = sum(1 for d in wire_dscps if d == Dscp.EF)
    print(f"\nwire packets marked EF: {marked}/{len(wire_dscps)}")
    assert observed == {"client": 16, "middle-tier": 128, "server": 136}
    print("matches Figure 2: QNX 16, LynxOS 128, Solaris 136, DSCP EF.")


if __name__ == "__main__":
    main()
