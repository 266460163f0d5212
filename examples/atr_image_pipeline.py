#!/usr/bin/env python
"""Automated target recognition: real edge detection + CPU reserves.

Part 1 runs the *actual* Kirsch/Prewitt/Sobel detectors (numpy) on a
synthetic 400x250 PPM sensor image — the paper's image geometry — and
reports their measured costs and edge statistics.

Part 2 replays the paper's Table 2 scenario on the simulated testbed:
a CORBA client streams images to an ATR server while bursty CPU load
competes, with and without a resource-kernel CPU reserve.

Run:  python examples/atr_image_pipeline.py
"""

import numpy as np

from repro.media import (
    EDGE_DETECTORS,
    decode_ppm,
    encode_ppm,
    relative_costs,
    synthetic_image,
)
from repro.experiments.reservation_cpu_exp import (
    all_arms,
    run_cpu_reservation_experiment,
)


def part1_real_detectors():
    print("=" * 64)
    print("Part 1: real edge detection on a synthetic sensor image")
    print("=" * 64)
    image = synthetic_image(seed=7)
    encoded = encode_ppm(image)
    print(f"image: {image.shape[1]}x{image.shape[0]} RGB, "
          f"{len(encoded)} bytes as PPM "
          f"(paper: 400x250, 300,060 bytes)")
    decoded = decode_ppm(encoded)
    assert np.array_equal(decoded, image), "PPM codec round-trip failed"

    costs = relative_costs(image)
    for name, detector in EDGE_DETECTORS.items():
        edges = detector(image)
        strong = float((edges > 128).mean() * 100)
        print(f"  {name:8s}: {costs[name] * 1e3:7.2f} ms/image on this "
              f"machine; {strong:4.1f}% strong-edge pixels")
    ratio = costs["Kirsch"] / costs["Prewitt"]
    print(f"  Kirsch/Prewitt cost ratio: {ratio:.1f}x "
          "(8 compass masks vs 2 gradient masks)")


def part2_simulated_contention():
    print()
    print("=" * 64)
    print("Part 2: the Table 2 experiment (simulated testbed, 60 s)")
    print("=" * 64)
    header = f"{'condition':14s}" + "".join(
        f"{name + ' ms':>16s}" for name in EDGE_DETECTORS
    )
    print(header)
    means = {}
    for arm in all_arms():
        result = run_cpu_reservation_experiment(arm, duration=60.0)
        row = f"{arm.name:14s}"
        for name in EDGE_DETECTORS:
            stats = result.stats(name)
            means[arm.name, name] = stats.mean
            row += f"{stats.mean * 1e3:8.1f}±{stats.std * 1e3:<6.1f}"
        print(row + f"  ({result.images_processed} images)")
    print("\nreservation restores no-load execution times under load,")
    print("exactly as the paper's Table 2 reports.")
    for name in EDGE_DETECTORS:
        idle = means["no-load", name]
        assert means["load", name] > idle, name
        assert abs(means["load+reserve", name] - idle) <= 0.02 * idle, name


if __name__ == "__main__":
    part1_real_detectors()
    part2_simulated_contention()
