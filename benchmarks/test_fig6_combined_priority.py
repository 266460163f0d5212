"""Figure 6: thread priorities + DSCP under full load.

"Both senders become much more predictable, while Sender 1's stream
exhibits better performance (lower latency) than Sender 2 and than it
did with thread priority alone.  Priority-based thread control
combined with priority-based DiffServ network management is able to
provide better end-to-end performance and predictability ... than
either of them can do individually."
"""

from _shared import regenerate


def test_fig6_combined_priority(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("fig6_combined_priority",), rounds=1, iterations=1)
    fig5b, fig6 = (result.payload for result in results)
    # Both senders predictable despite CPU load + 16 Mbps congestion.
    assert fig6.stats("sender1").mean < 0.02
    assert fig6.stats("sender1").std < 0.01
    assert fig6.stats("sender2").count > 200  # stream kept flowing
    # Sender 1 (EF, high thread prio) beats sender 2 (AF, low).
    assert fig6.stats("sender1").mean < fig6.stats("sender2").mean
    # And beats its own thread-priority-only latency by a wide margin.
    assert fig6.stats("sender1").mean < fig5b.stats("sender1").mean / 5
