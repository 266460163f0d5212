"""Bounded per-writer dedup ledgers (low-watermark + sparse tail).

Readers deduplicate per-writer sequence numbers before delivery.  The
original implementation kept every seq ever seen in a plain set — an
O(samples) memory cost that a long soak turns into a real leak.  The
ledger replaces it with the classic low-watermark shape:

* ``low`` — every seq ``<= low`` has been *accounted for*: either it
  was delivered (the contiguous prefix) or a heartbeat-driven trim
  declared it out of the dedup window.  ``low`` only moves forward.
* ``_tail`` — the sparse set of seqs ``> low`` seen out of contiguous
  order (gaps from loss, divisor suppression, reordering).  Whenever
  the gap at ``low + 1`` fills, the prefix collapses into ``low``.

Writers piggyback their current seq on liveliness heartbeats; the
broker fans ``trim(seq - DEDUP_WINDOW)`` out to every matched reader,
so the tail stays ``O(window + arrivals per lease)`` no matter how
long the run is — that bound is asserted by the pubsub checker and by
a 10k-sample canary test.

Trimming creates one ambiguity: a seq at or below the trim floor can
no longer be distinguished between "already delivered" and "never
seen".  The ledger reports those as **stale** (a separate verdict and
counter from **duplicate**, which is only reported when the ledger
*knows* the seq was seen).  Stale drops are an explicit term in the
reader's sample-conservation law; duplicates stay a hard zero.
"""

from __future__ import annotations

from typing import Set

__all__ = ["DedupLedger", "DEDUP_WINDOW"]

#: How far behind the writer's latest seq a reader keeps exact dedup
#: state.  One trim per heartbeat (lease/3) at fig12's 30 Hz topic
#: rate leaves plenty of slack below this.
DEDUP_WINDOW = 256


class DedupLedger:
    """Dedup state for one (reader, writer) pair."""

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
        low = self.low
        tail = self._tail
        if seq == low + 1 and not tail:
            # In order with no gap behind it, the common case: the seq
            # would join the tail and collapse into ``low`` at once.
            self.low = seq
            self.delivered += 1
            return "new"
        if seq <= low or seq in tail:
            self.duplicate_drops += 1
            return "duplicate"
        tail.add(seq)
        while (low + 1) in tail:
            low += 1
            tail.remove(low)
        self.low = low
        if len(tail) > self.max_tail:
            self.max_tail = len(tail)
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
