"""Figure 5: thread priorities alone (no network management).

(a) with competing CPU load: "the higher priority task (Sender 1)
exhibits significantly lower latency than the lower priority task";
(b) adding network congestion: "thread priorities are not sufficient
to maintain QoS.  The system becomes unpredictable even with RT-CORBA
priorities set."
"""

from _shared import regenerate


def test_fig5_thread_priority(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("fig5_thread_priority",), rounds=1, iterations=1)
    quiet, congested = (result.payload for result in results)
    # (a) thread priority protects the high-priority sender's send path.
    assert quiet.stats("sender1").mean * 3 < quiet.stats("sender2").mean
    # (b) but cannot fix the network: both unpredictable, with spikes.
    for name in ("sender1", "sender2"):
        assert congested.stats(name).maximum > 0.3
        assert congested.stats(name).std > 0.05
    # The high-priority sender no longer reliably wins (possible
    # priority inversion across the network bottleneck).
    assert congested.stats("sender1").maximum > 10 * quiet.stats(
        "sender1").maximum
