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

from repro.media.mpeg import Frame, FrameType


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
