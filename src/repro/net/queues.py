"""Egress queue disciplines.

Three disciplines cover the paper's experiments:

``FifoQueue``
    Plain tail-drop FIFO — the "best effort" control arms (Fig 4).

``DiffServQueue``
    Strict-priority bands selected by DSCP per-hop behaviour class —
    the priority-based network management arms (Figs 5, 6).

``GuaranteedRateQueue``
    A DiffServQueue with a reserved lane ahead of the DiffServ bands of
    the same queue, fed by per-flow token-bucket policing — the
    IntServ/RSVP arms (Fig 7, Table 1).  Traffic conforming to an
    installed reservation is served ahead of everything else;
    non-conforming excess is demoted to its DSCP class (and thus
    competes with, and drowns in, the congestion it was supposed to be
    protected from).

A packet is classified once per enqueue, by one lookup in the shared
codepoint table of :mod:`repro.net.diffserv` (the one classifier).  Each
queue keeps one set of books, and a rejection is booked exactly once;
``enqueued != dequeued`` is how a transmitter that has just finished a
frame knows another waits (``Interface._transmit_done``), so a
discipline's books must move with its deques.

A lane (a DiffServ band, the reserved lane) is built on its first
arrival, and ``dequeue`` scans only the lanes built so far, kept in
service order whatever order they were built in.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from repro.sim.kernel import Kernel
from repro.net.diffserv import BAND_OF, PhbClass, band_of
from repro.net.packet import Packet


class TokenBucket:
    """A token bucket metering one reserved flow.

    Tokens are *bytes*; they accrue at ``rate_bps / 8`` per second up to
    ``depth_bytes``.  A packet conforms if the bucket currently holds at
    least its size.

    The stored token count satisfies ``0 <= _tokens <= depth_bytes`` at
    all times (the :mod:`repro.sim.quantize` policy; ``TokenBucketChecker``
    checks it).  Refill clamps inline, as ``quantize.clamp`` would.  A
    consumption subtracts ``nbytes`` only once ``_tokens >= nbytes`` held,
    and a rounded ``x - y`` with ``0 <= y <= x`` lies in ``[0, x]``: no clamp.
    """

    def __init__(self, kernel: Kernel, rate_bps: float, depth_bytes: int) -> None:
        if rate_bps <= 0:
            raise ValueError(f"token rate must be positive, got {rate_bps}")
        if depth_bytes <= 0:
            raise ValueError(f"bucket depth must be positive, got {depth_bytes}")
        self._kernel = kernel
        self.rate_bps = float(rate_bps)
        self.depth_bytes = int(depth_bytes)
        self._tokens = float(depth_bytes)
        self._last_update = kernel.now

    def _refill(self) -> None:
        now = self._kernel.now
        elapsed = now - self._last_update
        if elapsed > 0:
            tokens = self._tokens + elapsed * self.rate_bps / 8.0
            if tokens < 0.0:
                tokens = 0.0
            elif tokens > self.depth_bytes:
                tokens = self.depth_bytes
            self._tokens = tokens
            self._last_update = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_consume(self, nbytes: int) -> bool:
        """Consume ``nbytes`` tokens if available; returns conformance."""
        self._refill()
        if self._tokens >= nbytes:
            self._tokens -= nbytes
            return True
        return False


class QueueDiscipline:
    """Base class: bounded packet storage with drop accounting."""

    def __init__(self, name: str = "qdisc") -> None:
        self.name = name
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        #: Per-flow drop counts (observability for experiments).
        self.drops_by_flow: Dict[str, int] = {}
        #: Optional drop callback, e.g. for loss-reactive transports.
        self.on_drop: Optional[Callable[[Packet], None]] = None

    # -- interface -----------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Store ``packet``; returns False (and accounts) on drop."""
        raise NotImplementedError

    def dequeue(self) -> Optional[Packet]:
        """Remove and return the next packet to transmit, if any."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- shared accounting ----------------------------------------------
    def _drop(self, packet: Packet) -> bool:
        self.dropped += 1
        self.drops_by_flow[packet.flow_id] = (
            self.drops_by_flow.get(packet.flow_id, 0) + 1
        )
        if self.on_drop is not None:
            self.on_drop(packet)
        return False


class FifoQueue(QueueDiscipline):
    """Tail-drop FIFO bounded by packet count."""

    def __init__(self, capacity: int = 100, name: str = "fifo") -> None:
        super().__init__(name=name)
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._queue: deque = deque()

    def enqueue(self, packet: Packet) -> bool:
        if len(self._queue) >= self.capacity:
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


class DiffServQueue(QueueDiscipline):
    """Strict-priority bands keyed by DSCP per-hop behaviour class.

    Each band is its own bounded tail-drop FIFO; dequeue always serves
    the most-preferred non-empty band.  This is the classic DiffServ
    priority-queueing PHB implementation: EF traffic starves best
    effort, which is exactly the protection the paper's Fig 6 arm uses.

    Within the Assured Forwarding bands, RFC 2597 drop precedence is
    honoured: as a band fills past 1/3 (2/3) of its capacity, arrivals
    with drop precedence 3 (2) are rejected first, so AFx1 traffic
    squeezes out AFx3 of the same class under pressure.
    """

    def __init__(
        self,
        band_capacity: int = 100,
        name: str = "diffserv",
        capacities: Optional[Dict[PhbClass, int]] = None,
    ) -> None:
        super().__init__(name=name)
        # Both indexed by PhbClass (an IntEnum counting from 0, most
        # preferred first).  A band is ``None`` until its first arrival
        # builds its deque: most ports of a generated WAN never carry a
        # packet.
        self._bands: List[Optional[deque]] = [None] * len(PhbClass)
        self._capacities = [(capacities or {}).get(phb, band_capacity)
                            for phb in PhbClass]
        #: The built deques in service order, most-preferred first:
        #: what ``dequeue`` scans and ``__len__`` sums.
        self._built: List[deque] = []

    #: The lane served ahead of every band: only a
    #: :class:`GuaranteedRateQueue` builds one, on its first conforming
    #: arrival.
    _reserved: Optional[deque] = None

    def _build_band(self, band: int) -> deque:
        """Build ``band``'s deque on its first arrival."""
        queue = self._bands[band] = deque()
        self._order_lanes()
        return queue

    def _order_lanes(self) -> None:
        """Re-derive ``_built`` from the lane slots, in service order
        (once per lane built, never per packet)."""
        self._built = [queue for queue in (self._reserved, *self._bands)
                       if queue is not None]

    def enqueue(self, packet: Packet) -> bool:
        dscp = packet.dscp
        band, fill = BAND_OF.get(dscp) or band_of(dscp)
        queue = self._bands[band]
        if queue is None:
            queue = self._build_band(band)
        threshold = self._capacities[band]
        if fill is not None:
            threshold *= fill
        if len(queue) >= threshold:
            return self._drop(packet)
        queue.append(packet)
        self.enqueued += 1
        return True

    def dequeue(self) -> Optional[Packet]:
        for queue in self._built:
            if queue:
                self.dequeued += 1
                return queue.popleft()
        return None

    def band_depth(self, phb: PhbClass) -> int:
        queue = self._bands[phb]
        return 0 if queue is None else len(queue)

    def band_capacity(self, phb: PhbClass) -> int:
        return self._capacities[phb]

    def set_band_capacity(self, phb: PhbClass, capacity: int) -> None:
        """Re-budget one band; packets already queued stay queued."""
        self._capacities[phb] = capacity

    def __len__(self) -> int:
        # Counted from the deques themselves, never from the books: the
        # invariant checker verifies ``len(q) == enqueued - dequeued``.
        return sum(map(len, self._built))


class GuaranteedRateQueue(DiffServQueue):
    """IntServ guaranteed-rate service: a reserved lane ahead of the
    DiffServ bands of the same queue.  Flows with installed reservations
    are policed by per-flow token buckets at enqueue time:

    * conforming packets join the *reserved* lane, served strictly
      first (the integrated-services guarantee);
    * non-conforming packets are demoted into the DiffServ bands
      according to their DSCP, i.e. excess traffic receives exactly the
      treatment it would have had with no reservation.

    Reservations are installed/removed by RSVP agents
    (:mod:`repro.net.intserv`) as RESV messages traverse the router.
    """

    def __init__(
        self,
        kernel: Kernel,
        band_capacity: int = 100,
        reserved_capacity: int = 400,
        name: str = "intserv",
    ) -> None:
        super().__init__(band_capacity=band_capacity, name=name)
        self._kernel = kernel
        self.reserved_capacity = int(reserved_capacity)
        self._buckets: Dict[str, TokenBucket] = {}
        #: Packets that conformed to a reservation (observability).
        self.conformed = 0
        #: Packets demoted for exceeding their reservation.
        self.demoted = 0

    # -- reservation management -----------------------------------------
    def install_reservation(self, flow_id: str, rate_bps: float,
                            depth_bytes: int) -> None:
        """Police ``flow_id`` with a fresh (full) token bucket, unless it
        already holds one of this very flowspec: a RESV retry or a
        re-signal along the same egress must not hand the flow a free
        burst."""
        bucket = self._buckets.get(flow_id)
        if (bucket is None or bucket.rate_bps != float(rate_bps)
                or bucket.depth_bytes != int(depth_bytes)):
            self._buckets[flow_id] = TokenBucket(
                self._kernel, rate_bps, depth_bytes)

    def remove_reservation(self, flow_id: str) -> None:
        self._buckets.pop(flow_id, None)

    def reserved_flows(self) -> Dict[str, TokenBucket]:
        return dict(self._buckets)

    # -- discipline -------------------------------------------------------
    def _build_reserved(self) -> deque:
        """Build the reserved lane on the first conforming arrival."""
        queue = self._reserved = deque()
        self._order_lanes()
        return queue

    def enqueue(self, packet: Packet) -> bool:
        buckets = self._buckets  # most ports police no flow: no lookup
        if buckets and (bucket := buckets.get(packet.flow_id)) is not None:
            if bucket.try_consume(packet.size_bytes):
                reserved = self._reserved
                if reserved is None:
                    reserved = self._build_reserved()
                if len(reserved) >= self.reserved_capacity:
                    return self._drop(packet)
                self.conformed += 1
                reserved.append(packet)
                self.enqueued += 1
                return True
            self.demoted += 1
        # DiffServQueue.enqueue's band test, repeated not called (hottest
        # frame there is); test_queue_equivalence.py pins both copies.
        dscp = packet.dscp
        band, fill = BAND_OF.get(dscp) or band_of(dscp)
        queue = self._bands[band]
        if queue is None:
            queue = self._build_band(band)
        threshold = self._capacities[band]
        if fill is not None:
            threshold *= fill
        if len(queue) >= threshold:
            return self._drop(packet)
        queue.append(packet)
        self.enqueued += 1
        return True
