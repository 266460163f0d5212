"""Figure 4: control runs — equal priorities, no network management.

(a) idle network: latency low (~ms) and flat for both senders;
(b) with 16 Mbps cross traffic: "performance and predictability
degrade significantly.  Latency fluctuates widely between a few
milliseconds to over a second for both streams."
"""

from _shared import regenerate


def test_fig4_control_runs(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("fig4_control_runs",), rounds=1, iterations=1)
    idle, congested = (result.payload for result in results)

    # (a): low, flat, symmetric.
    for name in ("sender1", "sender2"):
        assert idle.stats(name).mean < 0.02
        assert idle.stats(name).std < 0.01
    # (b): latency swings from milliseconds past a second.
    for name in ("sender1", "sender2"):
        stats = congested.stats(name)
        assert stats.minimum < 0.05
        assert stats.maximum > 1.0
        assert stats.std > 0.1
