"""DedupLedger unit laws and the 10k-sample bounded-memory canary.

The bug this guards against: the reader's per-writer "seen" state used
to be an unbounded set — one entry per sample forever.  The ledger
bounds it with a low watermark plus a sparse tail, trimmed by the
writer seq piggybacked on liveliness heartbeats.  The canary runs a
10k-sample stream with divisor-induced gaps (the worst case for the
tail: two of every three seqs never arrive) and asserts the high-water
mark of the tail stays within a small multiple of ``DEDUP_WINDOW``.
"""

from repro.pubsub import (
    Broker,
    DataReader,
    DataWriter,
    DedupLedger,
    DEDUP_WINDOW,
    QosPolicy,
    Topic,
)
from repro.sim import Kernel


# ----------------------------------------------------------------------
# Ledger unit laws
# ----------------------------------------------------------------------
def test_in_order_stream_keeps_an_empty_tail():
    ledger = DedupLedger()
    for seq in range(1, 101):
        assert ledger.observe(seq) == "new"
    assert ledger.low == 100
    assert len(ledger) == 0
    assert ledger.max_tail == 0  # the high-water mark is post-collapse
    assert ledger.delivered == 100
    assert ledger.duplicate_drops == ledger.stale_drops == 0


def test_duplicates_are_detected_below_low_and_in_the_tail():
    ledger = DedupLedger()
    for seq in (1, 2, 3, 7):
        ledger.observe(seq)
    assert ledger.observe(2) == "duplicate"   # below low
    assert ledger.observe(7) == "duplicate"   # in the sparse tail
    assert ledger.duplicate_drops == 2
    assert ledger.delivered == 4


def test_gap_fill_collapses_the_prefix():
    ledger = DedupLedger()
    for seq in (1, 3, 4, 5):
        ledger.observe(seq)
    assert ledger.low == 1
    assert len(ledger) == 3
    assert ledger.observe(2) == "new"  # fills the gap
    assert ledger.low == 5
    assert len(ledger) == 0


def test_trim_advances_the_floor_and_prunes_the_tail():
    ledger = DedupLedger()
    for seq in (1, 2, 50, 60):
        ledger.observe(seq)
    ledger.trim(55)
    assert ledger.trim_floor == 55
    assert ledger.low == 55
    assert len(ledger) == 1  # only 60 survives
    assert ledger.observe(60) == "duplicate"  # still known exactly
    assert ledger.observe(50) == "stale"      # forgotten, fails safe
    assert ledger.observe(56) == "new"        # above the floor: normal
    assert ledger.trims == 1


def test_trim_never_moves_backwards():
    ledger = DedupLedger()
    ledger.trim(100)
    ledger.trim(40)  # ignored
    assert ledger.trim_floor == 100
    assert ledger.trims == 1


def test_trim_to_a_gap_edge_recollapses():
    ledger = DedupLedger()
    for seq in (10, 11, 12):
        ledger.observe(seq)
    ledger.trim(9)
    assert ledger.low == 12
    assert len(ledger) == 0


def test_stale_is_never_misreported_as_duplicate():
    """The disambiguation law: "duplicate" is only claimed when the
    ledger *knows* the seq was seen; anything at or below the trim
    floor is "stale" even if it genuinely was delivered earlier."""
    ledger = DedupLedger()
    for seq in range(1, 11):
        ledger.observe(seq)
    ledger.trim(10)
    assert ledger.observe(5) == "stale"
    assert ledger.duplicate_drops == 0
    assert ledger.stale_drops == 1


# ----------------------------------------------------------------------
# The 10k-sample memory canary (local mode, divisor-induced gaps)
# ----------------------------------------------------------------------
def test_ten_thousand_sample_soak_keeps_the_ledger_bounded():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = Topic("t", sample_bytes=100, rate_hz=100.0)
    # A lease makes the writer heartbeat (lease/3), and each heartbeat
    # carries the writer's seq so the broker fans trims to the reader.
    writer = DataWriter(kernel, topic, QosPolicy(lease=0.6), "w")
    reader = DataReader(kernel, topic, QosPolicy(), "r")
    broker.register_writer(writer)
    broker.register_reader(reader)
    reader.request_divisor(3)  # 2 of 3 seqs never arrive: max tail churn

    total = 10_000
    interval = 1.0 / topic.rate_hz

    def publish():
        if writer.seq < total:
            writer.write()
            kernel.schedule(interval, publish)

    kernel.schedule(0.0, publish)
    kernel.run(until=total * interval + 1.0)

    assert writer.seq == total
    assert reader.delivered == total // 3
    ledger = reader._seen["w"]
    assert ledger.trims > 0
    # The bound: the sparse tail's high-water mark stays within the
    # dedup window plus one heartbeat interval's worth of arrivals —
    # nowhere near the O(total) growth of the old seen-set.
    slack = int(topic.rate_hz * 0.6 / 3.0) + 1
    assert ledger.max_tail <= DEDUP_WINDOW + slack
    assert len(ledger) <= DEDUP_WINDOW + slack
    assert reader.duplicates == 0
    assert reader.stale_drops == 0


def test_reliable_retransmit_after_trim_counts_stale_not_duplicate():
    """A seq arriving below the trim floor is dropped as stale even in
    a clean local run — the conservation law's stale term is the only
    place trim-window ambiguity is allowed to surface."""
    kernel = Kernel()
    broker = Broker(kernel)
    topic = Topic("t", sample_bytes=100, rate_hz=10.0)
    writer = DataWriter(kernel, topic, QosPolicy(), "w")
    reader = DataReader(kernel, topic, QosPolicy(), "r")
    broker.register_writer(writer)
    broker.register_reader(reader)
    for _ in range(10):
        writer.write()
    kernel.run(until=0.5)
    reader.trim_dedup("w", 5)
    # Simulate a late retransmit of seq 3 (below the floor).
    from repro.pubsub.core import Sample
    reader._receive(Sample(topic.name, "w", 3, None, 0.0), 0.0)
    assert reader.stale_drops == 1
    assert reader.duplicates == 0
    assert reader.delivered == 10
