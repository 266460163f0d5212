"""Content-filtered topics: the safe evaluator and writer-side use.

The filter expression is reader-declared but *writer-evaluated*: a
rejected sample never leaves the writer, so it consumes neither wire
bytes nor the match's EF reserve.  The evaluator is a whitelisted AST
interpreter — anything outside comparisons/arithmetic/boolean logic
over the sample's fields is rejected at construction, and a runtime
error fails closed (the sample is dropped, the error counted).
"""

import pytest

from repro.pubsub import (
    Broker,
    ContentFilter,
    DataReader,
    DataWriter,
    QosPolicy,
    Topic,
)
from repro.pubsub.core import Sample
from repro.sim import Kernel


def _sample(seq, data=None):
    return Sample("t", "w", seq, data, 0.0)


# ----------------------------------------------------------------------
# Expression semantics
# ----------------------------------------------------------------------
def test_seq_modulo_filter_splits_the_stream():
    even = ContentFilter("seq % 2 == 0")
    verdicts = [even.matches(_sample(k)) for k in range(1, 7)]
    assert verdicts == [False, True, False, True, False, True]
    assert even.evaluated == 6
    assert even.accepted == 3
    assert even.errors == 0


def test_filters_see_every_sample_field():
    f = ContentFilter(
        "topic == 't' and writer == 'w' and seq >= 2 and sent_at < 1.0")
    assert f.matches(_sample(2))
    assert not f.matches(_sample(1))


def test_data_payload_participates():
    f = ContentFilter("data is not None and data > 10")
    assert f.matches(_sample(1, data=11))
    assert not f.matches(_sample(2, data=3))
    assert not f.matches(_sample(3, data=None))
    assert f.errors == 0


def test_boolean_and_comparison_chaining():
    f = ContentFilter("1 <= seq <= 3 or seq == 9")
    assert [f.matches(_sample(k)) for k in (1, 3, 4, 9)] == [
        True, True, False, True]


def test_value_semantics():
    assert ContentFilter("seq > 1") == ContentFilter("seq > 1")
    assert ContentFilter("seq > 1") != ContentFilter("seq > 2")
    assert hash(ContentFilter("seq > 1")) == hash(ContentFilter("seq > 1"))


# ----------------------------------------------------------------------
# The whitelist: construction rejects anything outside the grammar
# ----------------------------------------------------------------------
@pytest.mark.parametrize("expression", [
    "__import__('os')",          # calls
    "seq.denominator",           # attribute access
    "open('/etc/passwd')",       # calls again
    "unknown_field == 1",        # names outside the sample schema
    "[seq for seq in (1,)]",     # comprehensions
    "(lambda: 1)()",             # lambdas
    "seq if seq else 0",         # conditional expressions
    "f'{seq}'",                  # f-strings
    "seq := 3",                  # assignment expressions
    "import os",                 # statements are not expressions
    "seq + 1 == 2",              # arithmetic other than %
    "not seq",                   # unary operators
    "-seq < 0",
])
def test_non_whitelisted_expressions_are_rejected(expression):
    with pytest.raises(ValueError):
        ContentFilter(expression)


def test_runtime_errors_fail_closed():
    """A filter that raises drops the sample and counts the error."""
    f = ContentFilter("seq % data == 0")
    assert not f.matches(_sample(4, data=None))  # TypeError inside
    assert not f.matches(_sample(4, data=0))     # ZeroDivisionError
    assert f.errors == 2
    assert f.matches(_sample(4, data=2))
    assert f.errors == 2


# ----------------------------------------------------------------------
# Writer-side evaluation, composing with the rate divisor
# ----------------------------------------------------------------------
def test_filtered_samples_never_reach_the_wire():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = Topic("t", sample_bytes=100, rate_hz=10.0)
    writer = DataWriter(kernel, topic, QosPolicy(), "w")
    reader = DataReader(kernel, topic, QosPolicy(), "r",
                        filter_expr="seq % 2 == 0")
    broker.register_writer(writer)
    broker.register_reader(reader)
    for _ in range(10):
        writer.write()
    kernel.run(until=1.0)
    assert reader.delivered == 5
    assert writer.sends_filtered == 5
    assert writer.samples_sent == 5  # rejected samples were never sent


def test_filter_composes_with_divisor_filter_first():
    """Filter runs before the divisor: pacing divides the topic's raw
    seq stream, and a filtered sample is charged to the filter ledger,
    never to ``sends_suppressed``."""
    kernel = Kernel()
    broker = Broker(kernel)
    topic = Topic("t", sample_bytes=100, rate_hz=10.0)
    writer = DataWriter(kernel, topic, QosPolicy(), "w")
    reader = DataReader(kernel, topic, QosPolicy(), "r",
                        filter_expr="seq % 2 == 0")
    broker.register_writer(writer)
    broker.register_reader(reader)
    reader.request_divisor(3)
    for _ in range(12):
        writer.write()
    kernel.run(until=1.0)
    # Odd seqs (6 of 12) are filtered; of the even ones only the
    # divisor's multiples of 3 pass: seq 6 and 12.
    assert writer.sends_filtered == 6
    assert writer.sends_suppressed == 4  # seq 2, 4, 8, 10
    assert reader.delivered == 2


def test_two_readers_with_complementary_filters_partition_the_stream():
    kernel = Kernel()
    broker = Broker(kernel)
    topic = Topic("t", sample_bytes=100, rate_hz=10.0)
    writer = DataWriter(kernel, topic, QosPolicy(), "w")
    evens = DataReader(kernel, topic, QosPolicy(), "r.even",
                       filter_expr="seq % 2 == 0")
    odds = DataReader(kernel, topic, QosPolicy(), "r.odd",
                      filter_expr="seq % 2 == 1")
    broker.register_writer(writer)
    broker.register_reader(evens)
    broker.register_reader(odds)
    for _ in range(10):
        writer.write()
    kernel.run(until=1.0)
    assert evens.delivered == 5
    assert odds.delivered == 5
    assert evens.duplicates == odds.duplicates == 0
    assert writer.sends_filtered == 10  # 5 rejections on each match
