"""Figure 11: fps held through a backbone cut, four recovery arms.

The rerouting gauntlet: a reserved 30 fps video stream crosses a
56-router seeded Waxman graph and the middle router-router link of its
forwarding path is cut permanently at t=10s, with 12 Mbps of cross
traffic parked on the predicted detour.  The four arms cross
{static routes, dynamic SPF} x {RSVP re-signal on, off}:

* both static arms collapse to zero — re-signaling over dead routes
  cannot route around a failure;
* dynamic alone re-converges but the reservation stays behind, so the
  stream rides the congested detour best-effort and the QuO contract
  sheds it nearly to nothing;
* dynamic + re-signal runs make-before-break after SPF convergence and
  restores the guaranteed-rate lane at essentially full frame rate.
"""

from _shared import regenerate


def test_fig11_route(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("fig11_route",), rounds=1, iterations=1)
    arms = {result.payload.arm.name: result.payload for result in results}

    static = arms["static"]
    static_resignal = arms["static-resignal"]
    dynamic = arms["dynamic"]
    dynamic_resignal = arms["dynamic-resignal"]

    # Every arm starts from the same converged tables: full rate in.
    for result in arms.values():
        assert result.pre_fail_fps() > 28.0
    # Static tables cannot route around the cut — with or without
    # re-signaling, delivery collapses and stays collapsed.
    assert static.recovery_rate_fps() < 3.0
    assert static_resignal.recovery_rate_fps() < 3.0
    # Dynamic SPF alone re-converges the forwarding plane, but the
    # reservation is still on the dead path: the detour is best-effort
    # through the cross traffic and the qosket sheds nearly everything.
    assert dynamic.spf_runs > 0 and dynamic.lsas_flooded > 0
    assert dynamic.recovery_rate_fps() < 10.0
    # The headline: convergence-triggered make-before-break re-signaling
    # restores the guaranteed lane on the new path at full rate.
    assert dynamic_resignal.resignal_rounds >= 1
    assert dynamic_resignal.recovery_rate_fps() >= 25.0
    assert (dynamic_resignal.recovery_rate_fps()
            > dynamic.recovery_rate_fps())
    # Transient unroutable drops (if any) are accounted, never negative.
    for result in arms.values():
        assert result.unroutable_drops >= 0
