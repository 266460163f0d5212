#!/usr/bin/env python
"""Quickstart: a CORBA call across a simulated network, then adapted.

Builds two hosts joined by a router, defines an interface in IDL,
activates a servant, and makes calls through a generated stub.  Then a
QuO contract watching a loss condition flips the stub's DSCP — the
paper's adaptation pattern in its smallest form.

The scenario is the registered ``quickstart``
(:mod:`repro.experiments.scenarios`); this script prints its narration
and checks its claims from the plain data it returns.

Run:  python examples/quickstart.py
"""

from repro.experiments.scenarios import run_quickstart


def main():
    result = run_quickstart()
    print(f"activated: {result['objref']}")
    for at, bearing, distance, rtt, dscp in result["calls"]:
        print(f"t={at * 1e3:7.3f}ms  "
              f"distance({bearing:5.1f}) = {distance:7.1f}  "
              f"(rtt {rtt * 1e3:.3f} ms, dscp={dscp})")
        if bearing == 45.0:  # the scenario raises the loss condition here
            print("-- congestion detected; contract re-marks traffic --")
    region = result["transitions"][-1][2]
    print(f"done at simulated t={result['now'] * 1e3:.3f} ms; "
          f"contract region: {region}")
    # What the output claims: the contract re-marked the third call EF.
    assert [call[4] for call in result["calls"]] == ["BE", "BE", "EF"]
    assert region == "congested"


if __name__ == "__main__":
    main()
