"""Frame filtering: the paper's application-level adaptation.

"The frame filtering cases dynamically reacted to network load by
filtering frames down to 10 fps or 2 fps, whichever the network would
support."  With the standard GOP (15 frames, IBBPBB...), dropping all
B frames leaves I+P = 10 fps and dropping everything but I frames
leaves 2 fps — so the filter is expressed in terms of frame types,
exactly as an MPEG-aware filter must be (you cannot drop an I frame
and keep its dependent P/B frames).
"""

from __future__ import annotations

import enum

from repro.media.mpeg import _TYPE_WEIGHTS, Frame, FrameType, GopStructure


class FilterLevel(enum.IntEnum):
    """Ordered filtering levels; higher = more aggressive dropping."""

    FULL = 0  # all frames (30 fps)
    MEDIUM = 1  # drop B frames (10 fps)
    LOW = 2  # I frames only (2 fps)


_ACCEPTED_TYPES = {
    FilterLevel.FULL: {FrameType.I, FrameType.P, FrameType.B},
    FilterLevel.MEDIUM: {FrameType.I, FrameType.P},
    FilterLevel.LOW: {FrameType.I},
}


def frames_per_second(
    level: FilterLevel, base_fps: float = 30.0, gop: GopStructure = None
) -> float:
    """Output frame rate after filtering a ``base_fps`` stream."""
    gop = gop or GopStructure()
    counts = gop.counts()
    kept = _ACCEPTED_TYPES[FilterLevel(level)]
    accepted = sum(counts[t] for t in FrameType if t in kept)
    return base_fps * accepted / gop.size


def bitrate_fraction(level: FilterLevel, gop: GopStructure = None) -> float:
    """Fraction of stream bytes that survive filtering at ``level``.

    Uses the same I:P:B size weights as :class:`MpegStream`, so an
    adaptation policy can predict the post-filter bandwidth.
    """
    gop = gop or GopStructure()
    counts = gop.counts()
    accepted = _ACCEPTED_TYPES[FilterLevel(level)]
    total = sum(_TYPE_WEIGHTS[t] * counts[t] for t in FrameType)
    kept = sum(
        _TYPE_WEIGHTS[t] * counts[t] for t in FrameType if t in accepted
    )
    return kept / total


class FrameFilter:
    """A stateful per-stream filter with an adjustable level.

    QuO contract transitions call :meth:`set_level`; the data path
    calls :meth:`accept` on every frame.
    """

    def __init__(self, level: FilterLevel = FilterLevel.FULL) -> None:
        self.level = FilterLevel(level)
        self.frames_seen = 0
        self.frames_passed = 0
        self.frames_filtered = 0

    def set_level(self, level: FilterLevel) -> None:
        self.level = FilterLevel(level)

    def accept(self, frame: Frame) -> bool:
        """True if the frame survives filtering at the current level."""
        self.frames_seen += 1
        if frame.frame_type in _ACCEPTED_TYPES[self.level]:
            self.frames_passed += 1
            return True
        self.frames_filtered += 1
        return False

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FrameFilter {self.level.name} "
            f"passed={self.frames_passed}/{self.frames_seen}>"
        )
