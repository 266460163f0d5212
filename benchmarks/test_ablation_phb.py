"""Ablation: strict-priority DiffServ PHB vs plain FIFO at the router.

Isolates the network half of the Fig 6 result: the same marked video
flow under the same congestion, with the only difference being whether
the bottleneck queue honours DSCPs.  With FIFO, marking is ink on a
dead letter; with the DiffServ PHB it is the whole ballgame.

The arm lives in :mod:`repro.experiments.ablations` and its renderer
in :mod:`repro.experiments.reporting`; this file asserts the shape.
"""

from _shared import regenerate


def test_ablation_phb(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("ablation_phb",), rounds=1, iterations=1)
    fifo, diffserv = (result.payload["recorder"] for result in results)

    # EF marking is useless without an honouring PHB...
    assert fifo.delivery_fraction() < 0.7
    assert fifo.latency.stats().mean > 0.05
    # ...and decisive with one.
    assert diffserv.delivery_fraction() > 0.99
    assert diffserv.latency.stats().mean < 0.01
