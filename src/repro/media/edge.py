"""Edge detection: Kirsch, Prewitt, and Sobel.

Real numpy implementations of the three "computationally intensive
edge detection algorithms" the paper runs in its ATR server (Table 2,
from the Tools for Image Processing library).  Each takes an RGB or
grayscale image and returns a uint8 edge-magnitude map.

Kirsch convolves eight compass masks and takes the maximum response,
so it is intrinsically the most expensive of the three — the relative
cost ordering the paper's Table 2 reflects.  :func:`relative_costs`
measures the actual Python/numpy runtimes, which the CPU-reservation
experiment uses to calibrate its simulated compute demands.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np


def _to_grayscale(image: np.ndarray) -> np.ndarray:
    """ITU-R 601 luma as float64."""
    if image.ndim == 3:
        weights = np.array([0.299, 0.587, 0.114])
        return image[..., :3].astype(np.float64) @ weights
    return image.astype(np.float64)


def _convolve2d(image: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """3x3 'same' convolution with edge padding (pure numpy)."""
    if mask.shape != (3, 3):
        raise ValueError(f"only 3x3 masks supported, got {mask.shape}")
    padded = np.pad(image, 1, mode="edge")
    result = np.zeros_like(image)
    for dy in range(3):
        for dx in range(3):
            # Correlation with the flipped mask == convolution.
            result += mask[2 - dy, 2 - dx] * padded[
                dy:dy + image.shape[0], dx:dx + image.shape[1]
            ]
    return result


def _normalize(magnitude: np.ndarray) -> np.ndarray:
    peak = magnitude.max()
    # Sub-unit peaks are float residue from exactly-cancelling masks on
    # flat regions, not edges; normalizing them would amplify noise to
    # full scale.
    if peak < 1.0:
        return np.zeros(magnitude.shape, dtype=np.uint8)
    return (magnitude * (255.0 / peak)).astype(np.uint8)


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------
_PREWITT_X = np.array([[-1, 0, 1], [-1, 0, 1], [-1, 0, 1]], dtype=np.float64)
_PREWITT_Y = _PREWITT_X.T

_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
_SOBEL_Y = _SOBEL_X.T

_KIRSCH_BASE = np.array(
    [[5, 5, 5], [-3, 0, -3], [-3, -3, -3]], dtype=np.float64
)


def _kirsch_masks():
    """The eight compass masks, by rotating the outer ring."""
    ring_index = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0)]
    ring = [_KIRSCH_BASE[i, j] for i, j in ring_index]
    masks = []
    for rotation in range(8):
        mask = np.zeros((3, 3))
        rotated = ring[-rotation:] + ring[:-rotation]
        for (i, j), value in zip(ring_index, rotated):
            mask[i, j] = value
        masks.append(mask)
    return masks


_KIRSCH_MASKS = _kirsch_masks()


def prewitt(image: np.ndarray) -> np.ndarray:
    """Prewitt gradient-magnitude edge map."""
    gray = _to_grayscale(image)
    gx = _convolve2d(gray, _PREWITT_X)
    gy = _convolve2d(gray, _PREWITT_Y)
    return _normalize(np.hypot(gx, gy))


def sobel(image: np.ndarray) -> np.ndarray:
    """Sobel gradient-magnitude edge map."""
    gray = _to_grayscale(image)
    gx = _convolve2d(gray, _SOBEL_X)
    gy = _convolve2d(gray, _SOBEL_Y)
    return _normalize(np.hypot(gx, gy))


def kirsch(image: np.ndarray) -> np.ndarray:
    """Kirsch compass-operator edge map (max of 8 directions)."""
    gray = _to_grayscale(image)
    response = _convolve2d(gray, _KIRSCH_MASKS[0])
    magnitude = np.abs(response)
    for mask in _KIRSCH_MASKS[1:]:
        np.maximum(magnitude, np.abs(_convolve2d(gray, mask)), out=magnitude)
    return _normalize(magnitude)


#: Registry in the order the paper's receiver invokes them.
EDGE_DETECTORS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "Kirsch": kirsch,
    "Prewitt": prewitt,
    "Sobel": sobel,
}


def relative_costs(image: np.ndarray, repeat: int = 3) -> Dict[str, float]:
    """Measure per-image wall-clock cost of each detector (seconds).

    Used to calibrate the simulated ATR compute demands so Table 2's
    relative per-algorithm ordering is grounded in the real
    implementations rather than invented constants.
    """
    costs = {}
    for name, detector in EDGE_DETECTORS.items():
        detector(image)  # warm-up (allocation, cache)
        best = float("inf")
        for _ in range(max(1, repeat)):
            start = time.perf_counter()
            detector(image)
            best = min(best, time.perf_counter() - start)
        costs[name] = best
    return costs
