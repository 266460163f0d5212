"""TRANSIENT_LOCAL durability: late-joiner catch-up laws.

The Hypothesis property is the tentpole: for *any* join point in the
stream and *any* history policy on the writer, a late reader's
delivered set is exactly (writer cache at join) ∪ (samples written
after join), duplicate-free.  KEEP_LAST keeps the newest ``depth``
samples (replay is the suffix before the join), KEEP_ALL the oldest
(replay is the prefix up to the resource bound) — both shapes fall
out of the same union law.
"""

from hypothesis import given, settings, strategies as st

from repro.pubsub import (
    Broker,
    DataReader,
    DataWriter,
    Durability,
    HistoryKind,
    QosPolicy,
    Topic,
)
from repro.sim import Kernel


def _durable_qos(history, depth):
    return QosPolicy(durability=Durability.TRANSIENT_LOCAL,
                     history=history, depth=depth)


def _run_late_join(total, join_after, history, depth):
    """Write ``join_after`` samples, register the reader, finish the
    stream; return (reader, writer, broker, seqs delivered)."""
    kernel = Kernel()
    broker = Broker(kernel)
    topic = Topic("t", sample_bytes=100, rate_hz=10.0)
    writer = DataWriter(kernel, topic, _durable_qos(history, depth), "w")
    broker.register_writer(writer)
    seqs = []
    reader = DataReader(
        kernel, topic, QosPolicy(durability=Durability.TRANSIENT_LOCAL),
        "r", on_sample=lambda s, latency: seqs.append(s.seq))
    for _ in range(join_after):
        writer.write()
    broker.register_reader(reader)
    for _ in range(total - join_after):
        writer.write()
    kernel.run(until=1.0)
    return reader, writer, broker, seqs


@settings(max_examples=200, deadline=None)
@given(total=st.integers(min_value=0, max_value=40),
       data=st.data(),
       history=st.sampled_from(HistoryKind),
       depth=st.integers(min_value=1, max_value=8))
def test_late_joiner_receives_cache_union_live_duplicate_free(
        total, data, history, depth):
    join_after = data.draw(st.integers(min_value=0, max_value=total))
    reader, writer, broker, seqs = _run_late_join(
        total, join_after, history, depth)

    if history is HistoryKind.KEEP_LAST:
        # Newest `depth` of the pre-join stream survive in the cache.
        cached = set(range(max(1, join_after - depth + 1), join_after + 1))
    else:
        # KEEP_ALL rejects at the resource bound: the oldest survive.
        cached = set(range(1, min(depth, join_after) + 1))
    live = set(range(join_after + 1, total + 1))
    expected = cached | live

    assert set(seqs) == expected
    assert len(seqs) == len(expected)  # duplicate-free
    assert reader.delivered == len(expected)
    assert reader.duplicates == 0
    match = next(iter(reader.matched.values()))
    assert match.replayed == len(cached)
    assert broker.replays == len(cached)


def test_reader_present_from_the_start_gets_no_replay():
    reader, writer, broker, seqs = _run_late_join(
        10, 0, HistoryKind.KEEP_LAST, 4)
    assert seqs == list(range(1, 11))
    assert broker.replays == 0
    assert next(iter(reader.matched.values())).replayed == 0


def test_volatile_request_against_durable_offer_skips_replay():
    """Durability is RxO-asymmetric: a VOLATILE reader matches a
    TRANSIENT_LOCAL writer but opts out of catch-up."""
    kernel = Kernel()
    broker = Broker(kernel)
    topic = Topic("t", sample_bytes=100, rate_hz=10.0)
    writer = DataWriter(
        kernel, topic, _durable_qos(HistoryKind.KEEP_LAST, 8), "w")
    broker.register_writer(writer)
    for _ in range(5):
        writer.write()
    reader = DataReader(kernel, topic, QosPolicy(), "r")  # VOLATILE
    broker.register_reader(reader)
    writer.write()
    kernel.run(until=1.0)
    assert reader.delivered == 1  # live only, no history
    assert broker.replays == 0


def test_volatile_offer_cannot_satisfy_a_durable_request():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = Topic("t", sample_bytes=100, rate_hz=10.0)
    writer = DataWriter(kernel, topic, QosPolicy(), "w")  # VOLATILE
    reader = DataReader(
        kernel, topic, QosPolicy(durability=Durability.TRANSIENT_LOCAL),
        "r")
    broker.register_writer(writer)
    broker.register_reader(reader)
    assert broker.matches_formed == 0
    assert broker.matches_rejected == 1


def test_replay_respects_the_content_filter():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = Topic("t", sample_bytes=100, rate_hz=10.0)
    writer = DataWriter(
        kernel, topic, _durable_qos(HistoryKind.KEEP_LAST, 16), "w")
    broker.register_writer(writer)
    for _ in range(8):
        writer.write()
    reader = DataReader(
        kernel, topic, QosPolicy(durability=Durability.TRANSIENT_LOCAL),
        "r", filter_expr="seq % 2 == 0")
    broker.register_reader(reader)
    kernel.run(until=1.0)
    assert reader.delivered == 4  # seq 2, 4, 6, 8
    assert writer.sends_filtered == 4
    assert broker.replays == 4


def test_a_local_replay_counts_the_time_a_sample_waited_in_the_cache():
    """A local reader that joins at t=2 s receives samples written at
    t=0-0.4 s: each arrives as old as it is, as over the network, and a
    latency budget sees that age."""
    for budget, violations in ((0.0, 0), (1.0, 5)):
        kernel = Kernel()
        broker = Broker(kernel)
        topic = Topic("t", sample_bytes=100, rate_hz=10.0)
        writer = DataWriter(kernel, topic, QosPolicy(
            durability=Durability.TRANSIENT_LOCAL, depth=8), "w")
        broker.register_writer(writer)
        reader = DataReader(kernel, topic, QosPolicy(
            durability=Durability.TRANSIENT_LOCAL, latency_budget=budget),
            "r")
        for index in range(5):
            kernel.schedule(index * 0.1, writer.write)
        kernel.schedule(2.0, broker.register_reader, reader)
        kernel.run(until=3.0)
        assert reader.delivered == 5
        assert reader.latency_max >= 1.6
        assert reader.budget_violations == violations
