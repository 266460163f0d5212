#!/usr/bin/env python
"""The paper's Figure 3 application: UAV video through a distributor.

Two sensor sources stream MPEG video over the A/V Streaming Service to
a distributor host, which fans each stream out to a display and (for
stream 1) an ATR stage.  Stream 1 carries an RSVP reservation attached
at bind time; stream 2 runs best-effort with a QuO frame-filtering
contract.  A mid-run 30 Mbps load burst shows the difference: the
reserved stream sails through, the adaptive stream sheds B/P frames to
protect its I frames.

The scenario is the registered ``uav``
(:mod:`repro.experiments.scenarios`); this script prints its narration
and checks its claims from the plain data it returns.

Run:  python examples/uav_video_pipeline.py
"""

from repro.experiments.scenarios import run_uav_pipeline


def main():
    result = run_uav_pipeline()
    print(f"running {result['now']:.0f} s of simulated mission time ...")
    stream1, stream2 = result["receivers"].values()
    print("\n--- stream 1 (reserved end-to-end) ---")
    print(f"frames delivered: {stream1['delivered']} "
          f"of {stream1['sent']} sent")
    latency = stream1["latency"]
    print(f"latency: mean {latency.mean * 1e3:.1f} ms, "
          f"std {latency.std * 1e3:.1f} ms")

    print("\n--- stream 2 (best effort + QuO frame filtering) ---")
    print(f"frames generated: {stream2['generated']}, "
          f"sent after filtering: {stream2['sent']}, "
          f"delivered: {stream2['delivered']}")
    print(f"received by type: {stream2['frame_types']}")
    print("contract transitions:")
    for time, before, after in result["transitions"]:
        print(f"  t={time:6.2f}s  {before} -> {after}")

    # What the output claims: the reserved stream loses nothing, and the
    # filtering contract degrades during the burst and recovers after it.
    assert 0 < stream1["delivered"] == stream1["sent"]
    regions = [after for _, _, after in result["transitions"]]
    assert "degraded" in regions
    assert regions[-1] == "full"


if __name__ == "__main__":
    main()
