#!/usr/bin/env python
"""Quickstart: a CORBA call across a simulated network, then adapted.

Builds two hosts joined by a router, defines an interface in IDL,
activates a servant, and makes calls through a generated stub.  Then a
QuO contract watching a loss condition flips the stub's DSCP — the
paper's adaptation pattern in its smallest form.

The scenario itself lives in :mod:`repro.experiments.scenarios` so the
``repro trace`` subcommand and the test-suite can run it too.

Run:  python examples/quickstart.py
"""

from repro.experiments.scenarios import run_quickstart


def main():
    result = run_quickstart(verbose=True)
    # What the output claims: the contract re-marked the third call EF.
    assert [call[3] for call in result["calls"]] == ["BE", "BE", "EF"]
    assert result["contract"].current_region == "congested"


if __name__ == "__main__":
    main()
