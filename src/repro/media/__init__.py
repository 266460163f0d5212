"""Media substrate: video frame models and image processing.

The paper's application is video: MPEG-1 streams ("approximately
1.2 Mbps for 30 fps") flowing from sensor sources through distributors
to displays and an automated target recognition (ATR) stage that runs
Kirsch, Prewitt and Sobel edge detectors over PPM images.

``mpeg``
    A synthetic MPEG-1-like stream model: GOP structure with I/P/B
    frames whose sizes follow the usual I >> P > B relationship and
    whose aggregate rate hits a configured bitrate.

``filtering``
    QuO-style frame filtering: reduce a 30 fps stream to 10 fps (drop
    B frames) or 2 fps (I frames only), the paper's adaptation knob.

``ppm``
    A real PPM (P6) codec and a synthetic image generator.

``edge``
    Real numpy implementations of the Kirsch, Prewitt and Sobel edge
    detectors (the paper's Table 2 workload, from the TIP library).
"""

from importlib import import_module

from repro.media.filtering import FrameFilter, frames_per_second
from repro.media.mpeg import Frame, FrameType, GopStructure, MpegStream

#: ``edge`` and ``ppm`` are the only numpy importers under ``src/`` and
#: nothing a scenario runs calls them (``AtrServant`` charges constants),
#: so their names resolve on first use (PEP 562) and ``import repro``
#: does not pay for numpy.
_LAZY = {
    "EDGE_DETECTORS": "edge",
    "kirsch": "edge",
    "prewitt": "edge",
    "relative_costs": "edge",
    "sobel": "edge",
    "decode_ppm": "ppm",
    "encode_ppm": "ppm",
    "synthetic_image": "ppm",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "EDGE_DETECTORS",
    "Frame",
    "FrameFilter",
    "FrameType",
    "GopStructure",
    "MpegStream",
    "decode_ppm",
    "encode_ppm",
    "frames_per_second",
    "kirsch",
    "prewitt",
    "relative_costs",
    "sobel",
    "synthetic_image",
]
