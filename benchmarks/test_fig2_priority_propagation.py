"""Figure 2: end-to-end priority propagation.

Reproduces the paper's worked example: one RT-CORBA priority (100,
under custom per-OS mappings) landing as QNX 16 on the client, LynxOS
128 on the middle tier, Solaris 136 on the server — with DSCP EF on
every network segment.
"""

from repro.net import Dscp

from _shared import regenerate


def test_fig2_priority_propagation(benchmark):
    (result,) = benchmark.pedantic(
        regenerate, args=("fig2_priority_propagation",),
        rounds=1, iterations=1)
    hops = result.payload
    # The paper's exact chain.
    assert [h.native_priority for h in hops] == [16, 128, 136]
    assert all(h.corba_priority == 100 for h in hops)
    assert all(h.dscp == Dscp.EF for h in hops)
