"""Active queue management: RED with ECN marking.

The paper notes that the IP DiffServ byte carries "two bits of
Explicit Congestion Notification (ECN)".  This module provides the
router half of that machinery: Random Early Detection, which signals
incipient congestion *before* the queue overflows by either marking
ECN-capable packets or dropping — keeping queues (and thus latencies)
short, which is what a latency-sensitive DRE flow wants from the
best-effort class.

The transport half (halving the congestion window on an ECN echo)
lives in :mod:`repro.net.transport`.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Optional

from repro.net.packet import Packet
from repro.net.queues import QueueDiscipline


class RedQueue(QueueDiscipline):
    """Random Early Detection with optional ECN marking.

    Parameters
    ----------
    capacity:
        Hard queue bound (packets); arrivals beyond it always drop.
    min_threshold / max_threshold:
        The RED thresholds on the *average* queue length: below min,
        accept; between, mark/drop with probability rising linearly to
        ``max_probability``; at or above max, mark/drop always.
    max_probability:
        Mark/drop probability at ``max_threshold``.
    weight:
        EWMA weight for the average queue estimate (RED's w_q).
    ecn:
        When True, congestion is signalled by setting the packet's ECN
        bit instead of dropping (packets are assumed ECN-capable, as
        modern transports are).
    rng:
        Seeded random stream for the early-drop lottery.
    """

    def __init__(
        self,
        capacity: int = 100,
        min_threshold: int = 20,
        max_threshold: int = 60,
        max_probability: float = 0.1,
        weight: float = 0.2,
        ecn: bool = True,
        rng: Optional[random.Random] = None,
        name: str = "red",
    ) -> None:
        super().__init__(name=name)
        if not 0 < min_threshold < max_threshold <= capacity:
            raise ValueError(
                f"need 0 < min_threshold < max_threshold <= capacity, got "
                f"{min_threshold}/{max_threshold}/{capacity}"
            )
        if not 0 < max_probability <= 1:
            raise ValueError(f"bad max_probability: {max_probability}")
        if not 0 < weight <= 1:
            raise ValueError(f"bad EWMA weight: {weight}")
        self.capacity = int(capacity)
        self.min_threshold = int(min_threshold)
        self.max_threshold = int(max_threshold)
        self.max_probability = float(max_probability)
        self.weight = float(weight)
        self.ecn = ecn
        self.rng = rng or random.Random(0)
        self._queue: deque = deque()
        self._average = 0.0
        #: Packets ECN-marked instead of dropped.
        self.ecn_marked = 0
        #: Early (probabilistic) congestion signals issued.
        self.early_signals = 0

    # ------------------------------------------------------------------
    @property
    def average_depth(self) -> float:
        return self._average

    def _update_average(self) -> None:
        self._average = (
            (1 - self.weight) * self._average + self.weight * len(self._queue)
        )

    def _signal(self, packet: Packet) -> bool:
        """Mark (True: packet still enqueued) or report drop (False)."""
        if self.ecn:
            packet.ecn = True
            self.ecn_marked += 1
            return True
        return False

    def enqueue(self, packet: Packet) -> bool:
        self._update_average()
        if len(self._queue) >= self.capacity:
            return self._drop(packet)
        signal = False
        if self._average >= self.max_threshold:
            signal = True
        elif self._average >= self.min_threshold:
            span = self.max_threshold - self.min_threshold
            probability = (
                self.max_probability
                * (self._average - self.min_threshold) / span
            )
            signal = self.rng.random() < probability
        if signal:
            self.early_signals += 1
            if not self._signal(packet):
                return self._drop(packet)
        self._queue.append(packet)
        self.enqueued += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._queue:
            return None
        self.dequeued += 1
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)
