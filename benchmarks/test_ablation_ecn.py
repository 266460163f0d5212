"""Ablation: tail-drop FIFO vs RED+ECN at a bottleneck carrying GIOP.

The paper points at the IP header's ECN bits but never evaluates them.
This ablation completes the picture: a bulk CORBA transfer through a
deep tail-drop queue builds hundreds of milliseconds of standing
queue (hurting every interactive request sharing the path), while
RED+ECN holds the queue near its thresholds at nearly the same
throughput.

The arm lives in :mod:`repro.experiments.ablations` and its renderer
in :mod:`repro.experiments.reporting`; this file asserts the shape.
"""

from _shared import regenerate


def test_ablation_ecn(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("ablation_ecn",), rounds=1, iterations=1)
    fifo, red = (result.payload for result in results)
    # RED+ECN keeps the standing queue about an order of magnitude
    # shorter, which interactive probes feel directly...
    assert red["max_queue"] < fifo["max_queue"] / 3
    assert red["mean_probe_rtt"] < fifo["mean_probe_rtt"] / 2
    # ...without giving up meaningful bulk throughput or causing drops.
    assert red["bulk_throughput_mbps"] > fifo["bulk_throughput_mbps"] * 0.6
    assert red["marked"] > 0
    assert red["dropped"] == 0
