#!/usr/bin/env python
"""The paper's Figure 3 application: UAV video through a distributor.

Two sensor sources stream MPEG video over the A/V Streaming Service to
a distributor host, which fans each stream out to a display and (for
stream 1) an ATR stage.  Stream 1 carries an RSVP reservation attached
at bind time; stream 2 runs best-effort with a QuO frame-filtering
contract.  A mid-run 30 Mbps load burst shows the difference: the
reserved stream sails through, the adaptive stream sheds B/P frames to
protect its I frames.

The scenario itself lives in :mod:`repro.experiments.scenarios` so the
``repro trace`` subcommand and the test-suite can run it too.

Run:  python examples/uav_video_pipeline.py
"""

from repro.experiments.scenarios import run_uav_pipeline


def main():
    actors = run_uav_pipeline(verbose=True)["actors"]
    # What the output claims: the reserved stream loses nothing, and the
    # filtering contract degrades during the burst and recovers after it.
    delivery = actors["receiver1"].delivery
    assert delivery.sent_count() > 0
    assert delivery.received_count() == delivery.sent_count()
    contract = actors["qosket2"].contract
    assert "degraded" in [t.to_region for t in contract.transitions]
    assert contract.current_region == "full"


if __name__ == "__main__":
    main()
