"""Unit tests for queue disciplines and token buckets."""

import pytest

from repro.sim import Kernel
from repro.net import (
    DiffServQueue,
    Dscp,
    FifoQueue,
    GuaranteedRateQueue,
    Packet,
    PhbClass,
    Protocol,
    TokenBucket,
)


def make_packet(dscp=Dscp.BE, nbytes=1000, flow_id=None, created_at=0.0):
    return Packet(
        src="a", dst="b", src_port=1, dst_port=2,
        protocol=Protocol.UDP, payload_bytes=nbytes,
        dscp=dscp, flow_id=flow_id, created_at=created_at,
    )


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_token_bucket_starts_full():
    kernel = Kernel()
    bucket = TokenBucket(kernel, rate_bps=8000, depth_bytes=1000)
    assert bucket.tokens == 1000


def test_token_bucket_consumes_and_refills():
    kernel = Kernel()
    bucket = TokenBucket(kernel, rate_bps=8000, depth_bytes=1000)  # 1000 B/s
    assert bucket.try_consume(1000)
    assert not bucket.try_consume(1)
    kernel.schedule(0.5, lambda: None)
    kernel.run()
    assert bucket.tokens == pytest.approx(500)
    assert bucket.try_consume(500)


def test_token_bucket_caps_at_depth():
    kernel = Kernel()
    bucket = TokenBucket(kernel, rate_bps=8000, depth_bytes=100)
    kernel.schedule(100.0, lambda: None)
    kernel.run()
    assert bucket.tokens == 100


def test_token_bucket_validation():
    kernel = Kernel()
    with pytest.raises(ValueError):
        TokenBucket(kernel, rate_bps=0, depth_bytes=10)
    with pytest.raises(ValueError):
        TokenBucket(kernel, rate_bps=100, depth_bytes=0)


# ----------------------------------------------------------------------
# FifoQueue
# ----------------------------------------------------------------------
def test_fifo_order():
    queue = FifoQueue(capacity=10)
    first, second = make_packet(), make_packet()
    queue.enqueue(first)
    queue.enqueue(second)
    assert queue.dequeue() is first
    assert queue.dequeue() is second
    assert queue.dequeue() is None


def test_fifo_tail_drop_and_accounting():
    queue = FifoQueue(capacity=2)
    packets = [make_packet(flow_id="f") for _ in range(3)]
    results = [queue.enqueue(p) for p in packets]
    assert results == [True, True, False]
    assert queue.dropped == 1
    assert queue.enqueued == 2
    assert queue.drops_by_flow == {"f": 1}


def test_fifo_drop_callback():
    queue = FifoQueue(capacity=1)
    dropped = []
    queue.on_drop = dropped.append
    queue.enqueue(make_packet())
    victim = make_packet()
    queue.enqueue(victim)
    assert dropped == [victim]


def test_fifo_capacity_validation():
    with pytest.raises(ValueError):
        FifoQueue(capacity=0)


# ----------------------------------------------------------------------
# DiffServQueue
# ----------------------------------------------------------------------
def test_diffserv_ef_served_before_be():
    queue = DiffServQueue()
    be = make_packet(dscp=Dscp.BE)
    ef = make_packet(dscp=Dscp.EF)
    queue.enqueue(be)
    queue.enqueue(ef)
    assert queue.dequeue() is ef
    assert queue.dequeue() is be


def test_diffserv_af_ordering():
    queue = DiffServQueue()
    af1 = make_packet(dscp=Dscp.AF11)
    af4 = make_packet(dscp=Dscp.AF41)
    be = make_packet(dscp=Dscp.BE)
    for p in (be, af1, af4):
        queue.enqueue(p)
    assert queue.dequeue() is af4
    assert queue.dequeue() is af1
    assert queue.dequeue() is be


def test_diffserv_band_isolation_on_overflow():
    """A flooded BE band must not cause EF drops."""
    queue = DiffServQueue(band_capacity=2)
    for _ in range(5):
        queue.enqueue(make_packet(dscp=Dscp.BE, flow_id="be"))
    assert queue.enqueue(make_packet(dscp=Dscp.EF, flow_id="ef"))
    assert queue.dropped == 3
    assert "ef" not in queue.drops_by_flow
    assert queue.band_depth(PhbClass.EXPEDITED) == 1


def test_diffserv_fifo_within_band():
    queue = DiffServQueue()
    first = make_packet(dscp=Dscp.EF)
    second = make_packet(dscp=Dscp.EF)
    queue.enqueue(first)
    queue.enqueue(second)
    assert queue.dequeue() is first


def test_diffserv_len_counts_all_bands():
    queue = DiffServQueue()
    queue.enqueue(make_packet(dscp=Dscp.EF))
    queue.enqueue(make_packet(dscp=Dscp.BE))
    assert len(queue) == 2


# ----------------------------------------------------------------------
# GuaranteedRateQueue
# ----------------------------------------------------------------------
def test_reserved_conforming_served_first():
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel)
    queue.install_reservation("video", rate_bps=1e6, depth_bytes=10_000)
    ef = make_packet(dscp=Dscp.EF, flow_id="cross")
    video = make_packet(dscp=Dscp.BE, flow_id="video")
    queue.enqueue(ef)
    queue.enqueue(video)
    assert queue.dequeue() is video  # reservation beats even EF
    assert queue.dequeue() is ef
    assert queue.conformed == 1


def test_nonconforming_excess_demoted_to_best_effort():
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel)
    # Bucket drains after ~2 packets of 1040 B.
    queue.install_reservation("video", rate_bps=1e5, depth_bytes=2100)
    outcomes = [queue.enqueue(make_packet(flow_id="video")) for _ in range(4)]
    assert all(outcomes)
    assert queue.conformed == 2
    assert queue.demoted == 2


def test_demoted_packets_compete_and_drop_with_congestion():
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel, band_capacity=1)
    queue.install_reservation("video", rate_bps=1e5, depth_bytes=1100)
    assert queue.enqueue(make_packet(flow_id="video"))  # conforms
    assert queue.enqueue(make_packet(flow_id="video"))  # demoted, BE ok
    assert not queue.enqueue(make_packet(flow_id="video"))  # BE full -> drop
    assert queue.dropped == 1


def test_unreserved_flow_goes_to_base_bands():
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel)
    packet = make_packet(dscp=Dscp.EF, flow_id="other")
    queue.enqueue(packet)
    assert queue.conformed == 0
    assert queue.dequeue() is packet


def test_remove_reservation_stops_conformance():
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel)
    queue.install_reservation("video", rate_bps=1e6, depth_bytes=10_000)
    queue.remove_reservation("video")
    queue.enqueue(make_packet(flow_id="video"))
    assert queue.conformed == 0


def test_bucket_refill_restores_conformance():
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel)
    queue.install_reservation("video", rate_bps=8e3, depth_bytes=1040)
    assert queue.enqueue(make_packet(flow_id="video"))
    assert queue.conformed == 1
    queue.enqueue(make_packet(flow_id="video"))
    assert queue.demoted == 1
    # After 1.04 s the bucket has 1040 bytes again.
    kernel.schedule(1.1, lambda: None)
    kernel.run()
    queue.enqueue(make_packet(flow_id="video"))
    assert queue.conformed == 2


def drained_bucket(kernel, queue):
    """``video`` reserved at 8 kbps / 2000 B, one 1040 B packet spent at
    t=0 and the clock at 0.1 s: 960 tokens as of the last refill."""
    queue.install_reservation("video", rate_bps=8e3, depth_bytes=2000)
    assert queue.enqueue(make_packet(flow_id="video"))
    kernel.run(until=0.1)
    bucket = queue.reserved_flows()["video"]
    assert (bucket._tokens, bucket._last_update) == (960.0, 0.0)
    return bucket


def test_reinstalling_the_same_flowspec_keeps_the_bucket():
    """An RSVP refresh / RESV retry re-installs what is already there;
    it must not top the bucket up (a free burst per refresh)."""
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel)
    bucket = drained_bucket(kernel, queue)
    queue.install_reservation("video", rate_bps=8e3, depth_bytes=2000)
    assert queue.reserved_flows()["video"] is bucket
    assert (bucket._tokens, bucket._last_update) == (960.0, 0.0)
    # 960 + 0.1 s x 1000 B/s = 1060 tokens: one more packet, not two.
    assert queue.enqueue(make_packet(flow_id="video"))
    assert queue.enqueue(make_packet(flow_id="video"))
    assert (queue.conformed, queue.demoted) == (2, 1)


@pytest.mark.parametrize("rate_bps, depth_bytes",
                         [(16e3, 2000), (8e3, 4000)])
def test_a_changed_flowspec_replaces_the_bucket(rate_bps, depth_bytes):
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel)
    old = drained_bucket(kernel, queue)
    queue.install_reservation("video", rate_bps=rate_bps,
                              depth_bytes=depth_bytes)
    new = queue.reserved_flows()["video"]
    assert new is not old
    assert (new.rate_bps, new.depth_bytes) == (rate_bps, depth_bytes)
    assert (new._tokens, new._last_update) == (float(depth_bytes), 0.1)


def test_remove_then_install_starts_a_full_bucket():
    kernel = Kernel()
    queue = GuaranteedRateQueue(kernel)
    old = drained_bucket(kernel, queue)
    queue.remove_reservation("video")
    queue.install_reservation("video", rate_bps=8e3, depth_bytes=2000)
    new = queue.reserved_flows()["video"]
    assert new is not old
    assert (new._tokens, new._last_update) == (2000.0, 0.1)
