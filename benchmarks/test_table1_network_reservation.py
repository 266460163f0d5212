"""Table 1: summary of network reservation experimental results.

All six {no/partial/full reservation} x {filtering off/on} arms, with
the paper's columns: % frames delivered under load, average latency,
and standard deviation.

Paper values for the legible cells: no adaptation 0.83 % / 324 ms;
partial reservation alone 43.9 %; full reservation ~100 % / 190 ms;
filtered arms ~99-100 % / 171-276 ms.
"""

from _shared import regenerate


def test_table1_network_reservation(benchmark):
    results = benchmark.pedantic(
        regenerate, args=("table1_network_reservation",),
        rounds=1, iterations=1)
    arms = {result.payload.arm.name: result.payload for result in results}
    fraction = {
        name: result.delivered_fraction_under_load()
        for name, result in arms.items()
    }
    latency = {
        name: result.latency_under_load() for name, result in arms.items()
    }
    # Column shape: delivery ordering across reservation levels.
    assert fraction["1-none"] < 0.05          # paper: 0.83 %
    assert 0.25 < fraction["2-partial"] < 0.65  # paper: 43.9 %
    assert fraction["3-full"] > 0.995         # paper: 100 %
    # Filtering improves (or preserves) every reservation level.
    assert fraction["5-partial-filtering"] > fraction["2-partial"]
    assert fraction["6-full-filtering"] > 0.995
    # Reservations slash latency and jitter under load.
    assert latency["3-full"].mean < latency["1-none"].mean / 5
    assert latency["3-full"].std < latency["1-none"].std
    # Filtering + partial reservation approaches full-reservation
    # delivery at a fraction of the reserved bandwidth.
    assert fraction["5-partial-filtering"] > 0.80
