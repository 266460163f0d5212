"""Unit tests: history caches, endpoints, broker matching and ownership.

Everything here runs in *local mode* (no NICs): the broker delivers
samples through zero-delay kernel events, so each law is isolated from
transport behavior.  Network-mode integration (heartbeat datagrams,
reliable streams, admission grants) lives in ``test_fig12_smoke.py``.
"""

import pytest

from repro.pubsub import (
    Broker,
    DataReader,
    DataWriter,
    HistoryCache,
    HistoryKind,
    OwnershipKind,
    QosPolicy,
    Reliability,
    Topic,
)
from repro.sim import Kernel

LEASE = 0.6


# ----------------------------------------------------------------------
# History caches
# ----------------------------------------------------------------------
def test_keep_last_evicts_oldest():
    cache = HistoryCache(HistoryKind.KEEP_LAST, depth=3)
    for k in range(5):
        assert cache.add(k)
    assert cache.snapshot() == [2, 3, 4]
    assert cache.replaced == 2
    assert cache.accepted == 5
    assert cache.max_held == 3


def test_keep_all_rejects_at_the_resource_bound():
    cache = HistoryCache(HistoryKind.KEEP_ALL, depth=3)
    assert all(cache.add(k) for k in range(3))
    assert not cache.add(99)
    assert cache.rejected == 1
    assert cache.snapshot() == [0, 1, 2]
    assert cache.max_held == 3


# ----------------------------------------------------------------------
# Matching through the broker
# ----------------------------------------------------------------------
def _topic():
    return Topic("t", sample_bytes=100, rate_hz=10.0)


def test_compatible_endpoints_match_and_deliver():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = _topic()
    writer = DataWriter(kernel, topic, QosPolicy(), "w")
    reader = DataReader(kernel, topic, QosPolicy(), "r")
    broker.register_writer(writer)
    broker.register_reader(reader)
    assert broker.matches_formed == 1
    for _ in range(4):
        writer.write()
    kernel.run(until=1.0)
    assert reader.delivered == 4
    assert reader.duplicates == 0
    assert reader.from_unmatched == 0


def test_a_writer_registered_after_its_reader_matches_it():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = _topic()
    reader = DataReader(kernel, topic, QosPolicy(), "r")
    writer = DataWriter(kernel, topic, QosPolicy(), "w")
    broker.register_reader(reader)
    broker.register_writer(writer)
    assert broker.matches_formed == 1
    writer.write()
    kernel.run(until=1.0)
    assert reader.delivered == 1


def test_incompatible_endpoints_never_match():
    """BEST_EFFORT offered cannot satisfy a RELIABLE request."""
    kernel = Kernel()
    broker = Broker(kernel)
    topic = _topic()
    writer = DataWriter(kernel, topic, QosPolicy(), "w")
    reader = DataReader(
        kernel, topic,
        QosPolicy(reliability=Reliability.RELIABLE), "r")
    broker.register_writer(writer)
    broker.register_reader(reader)
    assert broker.matches_formed == 0
    assert broker.matches_rejected == 1
    writer.write()
    kernel.run(until=1.0)
    assert reader.delivered == 0
    assert writer.samples_sent == 0  # nothing to send to


def test_topics_do_not_cross():
    kernel = Kernel()
    broker = Broker(kernel)
    writer = DataWriter(kernel, Topic("a"), QosPolicy(), "w")
    reader = DataReader(kernel, Topic("b"), QosPolicy(), "r")
    broker.register_writer(writer)
    broker.register_reader(reader)
    assert broker.matches_formed == 0
    assert broker.matches_rejected == 0  # never even considered


def test_duplicate_names_are_rejected():
    kernel = Kernel()
    broker = Broker(kernel)
    broker.register_writer(DataWriter(kernel, _topic(), QosPolicy(), "w"))
    with pytest.raises(ValueError):
        broker.register_writer(DataWriter(kernel, _topic(), QosPolicy(), "w"))
    broker.register_reader(DataReader(kernel, _topic(), QosPolicy(), "r"))
    with pytest.raises(ValueError):
        broker.register_reader(DataReader(kernel, _topic(), QosPolicy(), "r"))


def test_history_depth_bound_holds_under_load():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = _topic()
    writer = DataWriter(kernel, topic, QosPolicy(), "w")
    reader = DataReader(
        kernel, topic,
        QosPolicy(history=HistoryKind.KEEP_LAST, depth=4), "r")
    broker.register_writer(writer)
    broker.register_reader(reader)
    for _ in range(20):
        writer.write()
    kernel.run(until=1.0)
    assert reader.delivered == 20
    assert reader.history.max_held <= 4
    assert len(reader.history) == 4
    assert reader.history.replaced == 16


def test_divisor_paces_the_writer():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = _topic()
    writer = DataWriter(kernel, topic, QosPolicy(), "w")
    reader = DataReader(kernel, topic, QosPolicy(), "r")
    broker.register_writer(writer)
    broker.register_reader(reader)
    reader.request_divisor(3)
    for _ in range(12):
        writer.write()
    kernel.run(until=1.0)
    assert reader.delivered == 4  # seq 3, 6, 9, 12
    assert writer.sends_suppressed == 8


def test_deadline_monitor_counts_misses():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = _topic()
    checks = []
    # The writer must offer a deadline covering the reader's request
    # or RxO refuses the match outright.
    writer = DataWriter(kernel, topic, QosPolicy(deadline=0.05), "w")
    reader = DataReader(
        kernel, topic, QosPolicy(deadline=0.1), "r",
        on_deadline_check=lambda r, missed: checks.append(missed))
    broker.register_writer(writer)
    broker.register_reader(reader)

    # Publish ten samples at 20 Hz, then go silent.
    for k in range(10):
        kernel.schedule_at(k * 0.05, writer.write)
    kernel.run(until=1.0)
    assert reader.delivered == 10
    assert reader.deadline_misses > 0
    assert any(checks) and not all(checks)  # both outcomes observed
    assert reader.miss_streak > 0  # still missing at the horizon


# ----------------------------------------------------------------------
# Ownership arbitration (local mode)
# ----------------------------------------------------------------------
def _exclusive(strength, lease=LEASE):
    return QosPolicy(ownership=OwnershipKind.EXCLUSIVE,
                     strength=strength, lease=lease)


def _exclusive_reader_qos():
    return QosPolicy(ownership=OwnershipKind.EXCLUSIVE,
                     lease=None)  # accepts any offered lease


def test_strongest_live_writer_owns_the_topic():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = _topic()
    strong = DataWriter(kernel, topic, _exclusive(10), "strong")
    weak = DataWriter(kernel, topic, _exclusive(5), "weak")
    reader = DataReader(kernel, topic, _exclusive_reader_qos(), "r")
    broker.register_writer(weak)
    broker.register_writer(strong)
    broker.register_reader(reader)
    assert broker.owners[topic.name] == "strong"
    assert reader.owner == "strong"
    for _ in range(5):
        strong.write()
        weak.write()
    kernel.run(until=0.1)
    # Only the owner's stream is delivered; the backup is filtered.
    assert reader.delivered == 5
    assert reader.ownership_filtered == 5


def test_equal_strength_ties_break_to_smallest_name():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = _topic()
    broker.register_writer(DataWriter(kernel, topic, _exclusive(7), "wb"))
    broker.register_writer(DataWriter(kernel, topic, _exclusive(7), "wa"))
    assert broker.owners[topic.name] == "wa"


def test_lease_expiry_fails_over_and_revival_hands_back():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = _topic()
    primary = DataWriter(kernel, topic, _exclusive(10), "primary")
    backup = DataWriter(kernel, topic, _exclusive(5), "backup")
    reader = DataReader(kernel, topic, _exclusive_reader_qos(), "r")
    broker.register_writer(primary)
    broker.register_writer(backup)
    broker.register_reader(reader)
    assert reader.owner == "primary"

    # The primary's heartbeats stop at t=1.0; one lease later the
    # monitor declares it dead and arbitration moves to the backup.
    kernel.schedule_at(1.0, primary.stop_heartbeats)
    # At t=3.0 the primary comes back and the topic hands back.
    owners_seen = []

    def snapshot():
        owners_seen.append((round(kernel.now, 3),
                            broker.owners[topic.name]))
    kernel.schedule_at(2.5, snapshot)
    kernel.schedule_at(3.0, primary.start_heartbeats)
    kernel.schedule_at(3.5, snapshot)
    kernel.run(until=4.0)

    monitor = broker.monitors["primary"]
    assert [kind for kind, _ in monitor.transitions] == [
        "lost", "revived"]
    # Death detected exactly one lease after the final heartbeat.
    lost_at = monitor.transitions[0][1]
    assert lost_at <= 1.0 + LEASE + 1e-9
    assert owners_seen == [(2.5, "backup"), (3.5, "primary")]
    assert reader.owner == "primary"
    assert broker.ownership_changes == 3  # initial, failover, handback
