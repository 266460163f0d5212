"""Differential test: the flat queues against the two-level oracle.

``GuaranteedRateQueue`` used to *own* a ``DiffServQueue`` (two objects,
two sets of books, a drop mirror between them) and classified every
packet with ``classify`` + ``drop_precedence`` per enqueue.  It now *is*
a ``DiffServQueue`` with a reserved lane ahead of the bands, and the
band test reads one shared codepoint table.  The old structure is kept
here, verbatim in behaviour, as the oracle: any op sequence must give
the same accept/drop decision per packet, the same dequeue order, the
same books and the same ``on_drop`` calls through both.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Kernel
from repro.net import DiffServQueue, Dscp, GuaranteedRateQueue, Packet, Protocol
from repro.net.diffserv import PhbClass, classify, drop_precedence
from repro.net.queues import TokenBucket


# ----------------------------------------------------------------------
# The oracle: the parent commit's two-level structure
# ----------------------------------------------------------------------
class OracleBooks:
    def __init__(self):
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.drops_by_flow = {}
        self.on_drop = None

    def _accept(self, packet):
        self.enqueued += 1
        return True

    def _drop(self, packet):
        self.dropped += 1
        self.drops_by_flow[packet.flow_id] = (
            self.drops_by_flow.get(packet.flow_id, 0) + 1)
        if self.on_drop is not None:
            self.on_drop(packet)
        return False

    def _record_dequeue(self, packet):
        if packet is not None:
            self.dequeued += 1
        return packet


class OracleDiffServ(OracleBooks):
    THRESHOLDS = {1: 1.0, 2: 2.0 / 3.0, 3: 1.0 / 3.0}
    ASSURED = frozenset((PhbClass.ASSURED4, PhbClass.ASSURED3,
                         PhbClass.ASSURED2, PhbClass.ASSURED1))

    def __init__(self, band_capacity=100, capacities=None):
        super().__init__()
        self._bands = {phb: deque() for phb in PhbClass}
        self._capacities = {
            phb: (capacities or {}).get(phb, band_capacity)
            for phb in PhbClass}

    def enqueue(self, packet):
        band = classify(packet.dscp)
        queue = self._bands[band]
        threshold = self._capacities[band]
        if band in self.ASSURED:
            threshold *= self.THRESHOLDS[drop_precedence(packet.dscp)]
        if len(queue) >= threshold:
            return self._drop(packet)
        queue.append(packet)
        return self._accept(packet)

    def dequeue(self):
        for phb in PhbClass:  # most- to least-preferred
            if self._bands[phb]:
                return self._record_dequeue(self._bands[phb].popleft())
        return self._record_dequeue(None)

    def band_depth(self, phb):
        return len(self._bands[phb])

    def set_band_capacity(self, phb, capacity):
        self._capacities[phb] = capacity

    def __len__(self):
        return sum(len(queue) for queue in self._bands.values())


class OracleGuaranteedRate(OracleBooks):
    def __init__(self, kernel, band_capacity=100, reserved_capacity=400):
        super().__init__()
        self._kernel = kernel
        self._reserved = deque()
        self.reserved_capacity = reserved_capacity
        self._base = OracleDiffServ(band_capacity=band_capacity)
        self._base.on_drop = self._mirror_base_drop
        self._buckets = {}
        self.conformed = 0
        self.demoted = 0

    def install_reservation(self, flow_id, rate_bps, depth_bytes):
        self._buckets[flow_id] = TokenBucket(self._kernel, rate_bps,
                                             depth_bytes)

    def remove_reservation(self, flow_id):
        self._buckets.pop(flow_id, None)

    def _mirror_base_drop(self, packet):
        self._drop(packet)

    def enqueue(self, packet):
        bucket = self._buckets.get(packet.flow_id)
        if bucket is not None and bucket.try_consume(packet.size_bytes):
            if len(self._reserved) >= self.reserved_capacity:
                return self._drop(packet)
            self.conformed += 1
            self._reserved.append(packet)
            return self._accept(packet)
        if bucket is not None:
            self.demoted += 1
        if self._base.enqueue(packet):
            return self._accept(packet)
        return False  # the base's drop was mirrored into these books

    def dequeue(self):
        if self._reserved:
            return self._record_dequeue(self._reserved.popleft())
        return self._record_dequeue(self._base.dequeue())

    def band_depth(self, phb):
        return self._base.band_depth(phb)

    def set_band_capacity(self, phb, capacity):
        self._base.set_band_capacity(phb, capacity)

    def __len__(self):
        return len(self._reserved) + len(self._base)


# ----------------------------------------------------------------------
# Driving both with one op sequence
# ----------------------------------------------------------------------
FLOWS = ("video", "audio", "bulk")  # each may or may not hold a reservation
BOOKS = ("enqueued", "dequeued", "dropped", "drops_by_flow")

ALL_DSCPS = st.sampled_from(list(Dscp))
assert len(Dscp) == 21

ENQUEUE = st.tuples(st.just("enq"), ALL_DSCPS, st.sampled_from(FLOWS),
                    st.sampled_from((64, 500, 1460)))

OPS = st.lists(
    st.one_of(
        ENQUEUE, ENQUEUE,  # twice as likely: the bands have to fill
        st.tuples(st.just("deq")),
        st.tuples(st.just("advance"),
                  st.sampled_from((1e-4, 1e-3, 0.01, 0.25))),
        st.tuples(st.just("capacity"), st.sampled_from(list(PhbClass)),
                  st.integers(min_value=1, max_value=9)),
        # Install (if absent) or remove (if present) the flow's bucket.
        st.tuples(st.just("reserve"), st.sampled_from(FLOWS),
                  st.sampled_from((8e3, 64e3, 1e6)),
                  st.sampled_from((600, 1500, 4000))),
    ),
    max_size=150,
)

#: Dequeues and capacity overrides before any enqueue: they meet lanes
#: that no arrival has built yet.
PRELUDE = st.lists(
    st.one_of(
        st.tuples(st.just("deq")),
        st.tuples(st.just("capacity"), st.sampled_from(list(PhbClass)),
                  st.integers(min_value=1, max_value=9)),
    ),
    max_size=6,
)


def make_packet(dscp, flow, nbytes):
    return Packet("a", "b", 1, 2, Protocol.UDP, payload_bytes=nbytes,
                  dscp=dscp, flow_id=flow)


def assert_same_state(new, oracle, extra=()):
    assert len(new) == len(oracle)
    for attr in BOOKS + tuple(extra):
        assert getattr(new, attr) == getattr(oracle, attr), attr
    for phb in PhbClass:
        assert new.band_depth(phb) == oracle.band_depth(phb), phb
    # One set of books, balanced against the physical deques.
    assert len(new) == new.enqueued - new.dequeued
    assert sum(new.drops_by_flow.values()) == new.dropped


def drive(kernel, new, oracle, operations, extra=()):
    new_drops, oracle_drops = [], []
    new.on_drop = new_drops.append
    oracle.on_drop = oracle_drops.append
    rejected = []
    reserved = set()
    for op in operations:
        if op[0] == "enq":
            packet = make_packet(*op[1:])
            accepted = new.enqueue(packet)
            assert accepted == oracle.enqueue(packet)
            if not accepted:
                rejected.append(packet)
        elif op[0] == "deq":
            assert new.dequeue() is oracle.dequeue()
        elif op[0] == "advance":
            kernel.run(until=kernel.now + op[1])
        elif op[0] == "capacity":
            new.set_band_capacity(op[1], op[2])
            oracle.set_band_capacity(op[1], op[2])
        elif hasattr(new, "install_reservation"):
            _, flow, rate, depth = op
            if flow in reserved:
                reserved.discard(flow)
                new.remove_reservation(flow)
                oracle.remove_reservation(flow)
            else:
                reserved.add(flow)
                new.install_reservation(flow, rate, depth)
                oracle.install_reservation(flow, rate, depth)
        assert_same_state(new, oracle, extra)
        # on_drop fired once per rejection, with the rejected packet.
        assert len(new_drops) == len(rejected)
        assert all(a is b for a, b in zip(new_drops, rejected))
        assert all(a is b for a, b in zip(oracle_drops, rejected))
    while True:  # drain: same order to the end
        packet = new.dequeue()
        assert packet is oracle.dequeue()
        if packet is None:
            break
    assert_same_state(new, oracle, extra)


@given(PRELUDE, OPS, st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_prop_guaranteed_rate_queue_matches_two_level_oracle(
        prelude, operations, band_capacity, reserved_capacity):
    kernel = Kernel()
    new = GuaranteedRateQueue(kernel, band_capacity=band_capacity,
                              reserved_capacity=reserved_capacity)
    oracle = OracleGuaranteedRate(kernel, band_capacity=band_capacity,
                                  reserved_capacity=reserved_capacity)
    # "video" starts reserved with a bucket two MTUs deep, so sequences
    # reach conformance, exhaustion and demotion-then-overflow early.
    operations = [("reserve", "video", 64e3, 3000)] + prelude + operations
    drive(kernel, new, oracle, operations, extra=("conformed", "demoted"))


@given(PRELUDE, OPS, st.integers(min_value=1, max_value=9),
       st.dictionaries(st.sampled_from(list(PhbClass)),
                       st.integers(min_value=1, max_value=9)))
@settings(max_examples=150, deadline=None)
def test_prop_diffserv_queue_matches_oracle(prelude, operations,
                                            band_capacity, capacities):
    kernel = Kernel()
    new = DiffServQueue(band_capacity=band_capacity, capacities=capacities)
    oracle = OracleDiffServ(band_capacity=band_capacity,
                            capacities=capacities)
    drive(kernel, new, oracle, prelude + operations)


AF_CLASSES = {
    PhbClass.ASSURED1: (Dscp.AF11, Dscp.AF12, Dscp.AF13),
    PhbClass.ASSURED2: (Dscp.AF21, Dscp.AF22, Dscp.AF23),
    PhbClass.ASSURED3: (Dscp.AF31, Dscp.AF32, Dscp.AF33),
    PhbClass.ASSURED4: (Dscp.AF41, Dscp.AF42, Dscp.AF43),
}


@pytest.mark.parametrize("capacity", [3, 6, 7, 100])
@pytest.mark.parametrize("phb", list(AF_CLASSES))
def test_af_drop_precedence_edges_match_oracle(phb, capacity):
    """At every band depth, each AFx1/2/3 arrival gets the oracle's
    verdict from both flat queues; the 1/3 and 2/3 fill edges are where
    a ``>`` for ``>=`` or a rounded threshold would show."""
    marks = AF_CLASSES[phb]
    for depth in range(capacity + 1):
        for precedence, dscp in enumerate(marks, start=1):
            kernel = Kernel()
            queues = (DiffServQueue(band_capacity=capacity),
                      GuaranteedRateQueue(kernel, band_capacity=capacity),
                      OracleDiffServ(band_capacity=capacity))
            for queue in queues:
                for _ in range(depth):
                    assert queue.enqueue(make_packet(marks[0], "f", 500))
            probe = make_packet(dscp, "f", 500)
            verdicts = [queue.enqueue(probe) for queue in queues]
            fill = {1: 1.0, 2: 2.0 / 3.0, 3: 1.0 / 3.0}[precedence]
            assert verdicts == [not depth >= capacity * fill] * 3, (
                depth, dscp)
