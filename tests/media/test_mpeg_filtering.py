"""Tests for the MPEG stream model and frame filtering."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.media import Frame, FrameFilter, FrameType, GopStructure, MpegStream
from repro.media.filtering import FilterLevel, bitrate_fraction, frames_per_second


def test_gop_pattern_is_ibbpbb():
    gop = GopStructure(size=15, p_spacing=3)
    pattern = "".join(t.value for t in gop.pattern())
    assert pattern == "IBBPBBPBBPBBPBB"


def test_gop_counts():
    counts = GopStructure().counts()
    assert counts[FrameType.I] == 1
    assert counts[FrameType.P] == 4
    assert counts[FrameType.B] == 10


def test_gop_validation():
    with pytest.raises(ValueError):
        GopStructure(size=0)
    with pytest.raises(ValueError):
        GopStructure(p_spacing=0)


def test_stream_average_rate_matches_bitrate():
    stream = MpegStream("s", bitrate_bps=1.2e6, fps=30.0,
                        rng=random.Random(7))
    total = sum(stream.next_frame(i / 30.0).size_bytes for i in range(3000))
    seconds = 3000 / 30.0
    measured_bps = total * 8 / seconds
    assert measured_bps == pytest.approx(1.2e6, rel=0.02)


def test_i_frames_are_largest():
    stream = MpegStream("s", size_jitter=0.0)
    sizes = {}
    for i in range(15):
        frame = stream.next_frame(i / 30.0)
        sizes[frame.frame_type] = frame.size_bytes
    assert sizes[FrameType.I] > sizes[FrameType.P] > sizes[FrameType.B]


def test_two_i_frames_per_second_at_30fps():
    stream = MpegStream("s")
    frames = [stream.next_frame(i / 30.0) for i in range(30)]
    assert sum(1 for f in frames if f.frame_type == FrameType.I) == 2


def test_sequence_and_gop_bookkeeping():
    stream = MpegStream("s")
    frames = [stream.next_frame(i / 30.0) for i in range(31)]
    assert frames[0].sequence == 0
    assert frames[30].sequence == 30
    assert frames[30].gop_index == 2
    assert frames[30].gop_position == 0
    assert frames[30].frame_type == FrameType.I


def test_stream_validation():
    with pytest.raises(ValueError):
        MpegStream("s", bitrate_bps=0)
    with pytest.raises(ValueError):
        MpegStream("s", fps=0)
    with pytest.raises(ValueError):
        MpegStream("s", size_jitter=1.5)


def test_streams_with_same_seed_are_identical():
    a = MpegStream("a", rng=random.Random(3))
    b = MpegStream("b", rng=random.Random(3))
    for i in range(50):
        assert a.next_frame(0.0).size_bytes == b.next_frame(0.0).size_bytes


# ----------------------------------------------------------------------
# Filtering
# ----------------------------------------------------------------------
def test_frame_sizes_are_the_streams_uniform_jitter_draws():
    """Each size is its type's mean times ``1 + uniform(-j, j)`` drawn
    from the stream's RNG, frame by frame, on a non-default GOP."""
    gop = GopStructure(12, 4)
    stream = MpegStream("s", gop=gop, size_jitter=0.2, rng=random.Random(5))
    oracle = random.Random(5)
    for sequence in range(3 * gop.size):
        frame = stream.next_frame(sequence / 30.0)
        frame_type = gop.frame_type(sequence)
        assert frame.frame_type is frame_type
        assert frame.sequence == sequence
        assert (frame.gop_index, frame.gop_position) == divmod(sequence, 12)
        assert frame.size_bytes == max(64, int(
            stream.mean_frame_bytes(frame_type)
            * (1 + oracle.uniform(-0.2, 0.2))))


def test_filter_levels_map_to_paper_frame_rates():
    assert frames_per_second(FilterLevel.FULL) == pytest.approx(30.0)
    assert frames_per_second(FilterLevel.MEDIUM) == pytest.approx(10.0)
    assert frames_per_second(FilterLevel.LOW) == pytest.approx(2.0)


def test_bitrate_fraction_ordering():
    full = bitrate_fraction(FilterLevel.FULL)
    medium = bitrate_fraction(FilterLevel.MEDIUM)
    low = bitrate_fraction(FilterLevel.LOW)
    assert full == pytest.approx(1.0)
    assert full > medium > low > 0


def test_medium_filter_drops_only_b_frames():
    stream = MpegStream("s")
    video_filter = FrameFilter(FilterLevel.MEDIUM)
    passed = [
        stream.next_frame(i / 30.0)
        for i in range(150)
    ]
    accepted = [f for f in passed if video_filter.accept(f)]
    assert all(f.frame_type in (FrameType.I, FrameType.P) for f in accepted)
    assert len(accepted) == 50  # 10 fps for 5 seconds of stream


def test_low_filter_keeps_only_i_frames():
    stream = MpegStream("s")
    video_filter = FrameFilter(FilterLevel.LOW)
    accepted = [
        f for f in (stream.next_frame(i / 30.0) for i in range(150))
        if video_filter.accept(f)
    ]
    assert all(f.frame_type == FrameType.I for f in accepted)
    assert len(accepted) == 10  # 2 fps for 5 seconds


def test_filter_level_change_takes_effect():
    stream = MpegStream("s")
    video_filter = FrameFilter(FilterLevel.FULL)
    first_gop = [stream.next_frame(i / 30.0) for i in range(15)]
    assert all(video_filter.accept(f) for f in first_gop)
    video_filter.set_level(FilterLevel.LOW)
    second_gop = [stream.next_frame(i / 30.0) for i in range(15)]
    assert sum(video_filter.accept(f) for f in second_gop) == 1


def test_filter_statistics():
    video_filter = FrameFilter(FilterLevel.MEDIUM)
    stream = MpegStream("s")
    for i in range(30):
        video_filter.accept(stream.next_frame(i / 30.0))
    assert video_filter.frames_seen == 30
    assert video_filter.frames_passed + video_filter.frames_filtered == 30


@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=10))
def test_prop_every_gop_position_has_a_type(size, p_spacing):
    gop = GopStructure(size=size, p_spacing=p_spacing)
    pattern = gop.pattern()
    assert len(pattern) == size
    assert pattern[0] == FrameType.I


@given(st.sampled_from(list(FilterLevel)))
def test_prop_filtered_rate_never_exceeds_base(level):
    assert frames_per_second(level) <= 30.0
