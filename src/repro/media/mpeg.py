"""A synthetic MPEG-1-like video stream model.

The experiments depend on three statistical properties of MPEG-1
video, not on pixel content:

* frame *types* — a GOP (group of pictures) of N=15 frames at 30 fps
  contains one I frame (so "I-frames ... are two fps", as the paper
  notes), P frames every M=3 positions, and B frames between them;
* frame *sizes* — I frames are several times larger than P frames,
  which are larger than B frames, with the aggregate rate hitting the
  configured bitrate (1.2 Mbps for the paper's streams);
* frame *timing* — frames are emitted at the configured frame rate.

:class:`MpegStream` generates :class:`Frame` objects accordingly, with
seedable size jitter.
"""

from __future__ import annotations

import enum
import random
from typing import List, Optional


class FrameType(enum.Enum):
    I = "I"  # intra-coded: full content
    P = "P"  # predicted
    B = "B"  # bidirectionally predicted

    # Every frame is looked up in ``_TYPE_WEIGHTS`` and in a filter's
    # accepted set; ``Enum.__hash__`` is a Python-level
    # ``hash(self._name_)``, the identity hash the same equivalence in C.
    __hash__ = object.__hash__


# Read once per frame: module globals, not attribute loads on the class,
# which ``EnumMeta.__getattr__`` slows (CPython 3.10 / 3.11).
I_FRAME, P_FRAME, B_FRAME = FrameType.I, FrameType.P, FrameType.B


class GopStructure:
    """Group-of-pictures layout.

    Parameters
    ----------
    size:
        Frames per GOP (N).  15 at 30 fps gives 2 I frames/second.
    p_spacing:
        Distance between anchor frames (M); 3 gives the classic
        IBBPBB... pattern.
    """

    def __init__(self, size: int = 15, p_spacing: int = 3) -> None:
        if size < 1:
            raise ValueError(f"GOP size must be >= 1, got {size}")
        if p_spacing < 1:
            raise ValueError(f"p_spacing must be >= 1, got {p_spacing}")
        self.size = int(size)
        self.p_spacing = int(p_spacing)

    def frame_type(self, position: int) -> FrameType:
        """Type of the frame at ``position`` (0-based) within a GOP."""
        position %= self.size
        if position == 0:
            return I_FRAME
        if position % self.p_spacing == 0:
            return P_FRAME
        return B_FRAME

    def pattern(self) -> List[FrameType]:
        return [self.frame_type(i) for i in range(self.size)]

    def counts(self) -> dict:
        pattern = self.pattern()
        return {t: pattern.count(t) for t in FrameType}


class Frame:
    """One video frame as the middleware sees it."""

    __slots__ = (
        "stream_id",
        "sequence",
        "frame_type",
        "size_bytes",
        "timestamp",
        "gop_index",
        "gop_position",
    )

    def __init__(
        self,
        stream_id: str,
        sequence: int,
        frame_type: FrameType,
        size_bytes: int,
        timestamp: float,
        gop_index: int,
        gop_position: int,
    ) -> None:
        self.stream_id = stream_id
        self.sequence = sequence
        self.frame_type = frame_type
        self.size_bytes = size_bytes
        self.timestamp = timestamp
        self.gop_index = gop_index
        self.gop_position = gop_position

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Frame {self.stream_id}#{self.sequence} "
            f"{self.frame_type.value} {self.size_bytes}B t={self.timestamp:.3f}>"
        )


#: Relative coding weight of each frame type (I:P:B ~ 5:2.5:1, a
#: conventional MPEG-1 size relationship).
_TYPE_WEIGHTS = {FrameType.I: 5.0, FrameType.P: 2.5, FrameType.B: 1.0}


class MpegStream:
    """Generates the frame sequence of one video stream.

    >>> stream = MpegStream("uav1", bitrate_bps=1.2e6, fps=30.0)
    >>> frame = stream.next_frame(now=0.0)
    >>> frame.frame_type
    <FrameType.I: 'I'>
    """

    def __init__(
        self,
        name: str,
        bitrate_bps: float = 1.2e6,
        fps: float = 30.0,
        gop: Optional[GopStructure] = None,
        size_jitter: float = 0.1,
        rng: Optional[random.Random] = None,
    ) -> None:
        if bitrate_bps <= 0:
            raise ValueError(f"bitrate must be positive, got {bitrate_bps}")
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        if not 0 <= size_jitter < 1:
            raise ValueError(f"size_jitter must be in [0, 1), got {size_jitter}")
        self.name = name
        self.bitrate_bps = float(bitrate_bps)
        self.fps = float(fps)
        self.gop = gop or GopStructure()
        self.size_jitter = float(size_jitter)
        self.rng = rng or random.Random(0)
        self._sequence = 0
        # Solve for the base weight so one GOP hits the target rate:
        # sum(weight_t * count_t) * base = bytes_per_gop.
        counts = self.gop.counts()
        weight_sum = sum(_TYPE_WEIGHTS[t] * counts[t] for t in FrameType)
        bytes_per_second = self.bitrate_bps / 8.0
        bytes_per_gop = bytes_per_second * self.gop.size / self.fps
        self._base_bytes = bytes_per_gop / weight_sum
        #: ``(type, mean bytes)`` of each GOP position: what
        #: :meth:`next_frame` reads instead of asking the GOP each frame.
        #: Positions of one type share one pair.
        pairs = {frame_type: (frame_type, self.mean_frame_bytes(frame_type))
                 for frame_type in FrameType}
        self._positions = tuple(pairs[frame_type]
                                for frame_type in self.gop.pattern())
        self._gop_size = self.gop.size
        # ``random.uniform(-j, j)``'s own expression, ``a + (b-a) *
        # random()``, with its two constants taken once: the same
        # draws and the same floats.
        self._jitter_low = -self.size_jitter
        self._jitter_span = self.size_jitter - -self.size_jitter
        self._random = self.rng.random

    @property
    def frame_interval(self) -> float:
        """Seconds between consecutive frames."""
        return 1.0 / self.fps

    def mean_frame_bytes(self, frame_type: FrameType) -> float:
        """Expected size of a frame of the given type."""
        return self._base_bytes * _TYPE_WEIGHTS[frame_type]

    def next_frame(self, now: float) -> Frame:
        """Produce the next frame, stamped with simulated time ``now``."""
        sequence = self._sequence
        self._sequence = sequence + 1
        size = self._gop_size
        position = sequence % size
        frame_type, mean = self._positions[position]
        jitter = 1.0 + (self._jitter_low
                        + self._jitter_span * self._random())
        return Frame(self.name, sequence, frame_type,
                     max(64, int(mean * jitter)), now, sequence // size,
                     position)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MpegStream {self.name!r} {self.bitrate_bps/1e6:.2f}Mbps "
            f"@{self.fps:.0f}fps>"
        )
