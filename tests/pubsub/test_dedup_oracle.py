"""Property test: the dedup ledger's in-order step against the old ledger.

:meth:`~repro.pubsub.dedup.DedupLedger.observe` advances ``low``
directly when a seq arrives in order with nothing in the tail, instead
of putting it into the tail set and collapsing it out again.  The
oracle is the ledger as it was before that step, kept verbatim.  Both
run random interleavings of ``observe`` and ``trim`` (in-order runs,
gaps, duplicates, reorderings and heartbeat trims behind the stream);
after every step the verdicts and every book must agree.
"""

from typing import Set

from hypothesis import given, settings, strategies as st

from repro.pubsub.dedup import DedupLedger


class TailSetLedger:
    """The ledger that put every seq into its tail (the oracle)."""

    __slots__ = ("low", "trim_floor", "delivered", "duplicate_drops",
                 "stale_drops", "trims", "max_tail", "_tail")

    def __init__(self) -> None:
        self.low = 0            # all seqs <= low are accounted for
        self.trim_floor = 0     # seqs <= trim_floor are ambiguous
        self.delivered = 0
        self.duplicate_drops = 0
        self.stale_drops = 0
        self.trims = 0
        self.max_tail = 0
        self._tail: Set[int] = set()

    def __len__(self) -> int:
        return len(self._tail)

    def observe(self, seq: int) -> str:
        """Classify one arrival: ``"new"``, ``"duplicate"`` or ``"stale"``.

        ``"new"`` means deliver (and is counted as delivered); the
        other two mean drop.
        """
        if seq <= self.trim_floor:
            # Below the trim floor the ledger has forgotten whether
            # this seq was seen; fail safe by dropping it as stale.
            self.stale_drops += 1
            return "stale"
        if seq <= self.low or seq in self._tail:
            self.duplicate_drops += 1
            return "duplicate"
        self._tail.add(seq)
        while (self.low + 1) in self._tail:
            self.low += 1
            self._tail.remove(self.low)
        if len(self._tail) > self.max_tail:
            self.max_tail = len(self._tail)
        self.delivered += 1
        return "new"

    def trim(self, floor: int) -> None:
        """Forget exact state for seqs ``<= floor`` (heartbeat-driven)."""
        if floor <= self.trim_floor:
            return
        self.trims += 1
        self.trim_floor = floor
        if floor > self.low:
            self.low = floor
            self._tail = {seq for seq in self._tail if seq > floor}
            while (self.low + 1) in self._tail:
                self.low += 1
                self._tail.remove(self.low)


def books(ledger):
    return (ledger.low, ledger.trim_floor, ledger.delivered,
            ledger.duplicate_drops, ledger.stale_drops, ledger.trims,
            ledger.max_tail, len(ledger))


#: One step of a writer's stream as a reader sees it: the next seq, a
#: jump ahead (a gap), a seq from behind (a duplicate or a late
#: arrival), or a heartbeat trim some way behind the newest seq.
STEPS = st.lists(st.one_of(
    st.just(("next", 1)),
    st.tuples(st.just("jump"), st.integers(min_value=2, max_value=6)),
    st.tuples(st.just("back"), st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("trim"), st.integers(min_value=0, max_value=10)),
), max_size=60)


@settings(max_examples=400, deadline=None)
@given(steps=STEPS)
def test_in_order_step_matches_the_tail_set_ledger(steps):
    ledger, oracle = DedupLedger(), TailSetLedger()
    newest = 0
    for kind, k in steps:
        if kind == "trim":
            ledger.trim(newest - k)
            oracle.trim(newest - k)
        else:
            if kind == "back":
                seq = max(1, newest - k)
            else:
                newest += k
                seq = newest
            assert ledger.observe(seq) == oracle.observe(seq)
        assert books(ledger) == books(oracle)
