#!/usr/bin/env python
"""Automated target recognition: real edge detection.

Runs the *actual* Kirsch/Prewitt/Sobel detectors (numpy) on a synthetic
400x250 PPM sensor image — the paper's image geometry — and reports
their measured costs and edge statistics.  The simulated Table 2
experiment (the same detectors' costs under bursty CPU load, with and
without a CPU reserve) is ``python -m repro run table2``.

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


def main():
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


if __name__ == "__main__":
    main()
