"""Figure 7: predictability of image delivery using network reservation.

Cumulative frames sent vs received for the three plotted cases:
no adaptation (almost everything lost during the burst), partial
reservation + frame filtering (intermediate frames shed, full-content
frames delivered), and full reservation (everything delivered).

Paper timeline: 300 s of video, a 43.8 Mbps load burst from t=60 s to
t=120 s.
"""

from _shared import regenerate


def test_fig7_frame_delivery(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("fig7_frame_delivery",), rounds=1, iterations=1)
    none, partial, full = (result.payload for result in results)

    # "With no adaptation, almost all of the frames sent while the
    # system was under load were lost."
    assert none.delivered_fraction_under_load() < 0.05
    # "With a partial reservation and frame filtering, the middleware
    # dropped less important intermediate frames, but successfully
    # delivered all full content frames."
    assert partial.i_frames_delivered_under_load() > 0.75
    assert partial.delivered_fraction_under_load() > 0.80
    # "With a full reservation, all frames were successfully delivered."
    assert full.delivered_fraction_under_load() > 0.995
    # The cumulative sent/received gap opens only for the unmanaged arm.
    rows = none.cumulative_counts(bin_width=20.0)
    final_gap = rows[-1][1] - rows[-1][2]
    assert final_gap > 1000
    full_rows = full.cumulative_counts(bin_width=20.0)
    assert full_rows[-1][1] - full_rows[-1][2] < 20
