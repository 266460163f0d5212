"""Egress queue disciplines.

Three disciplines cover the paper's experiments:

``FifoQueue``
    Plain tail-drop FIFO — the "best effort" control arms (Fig 4).

``DiffServQueue``
    Strict-priority bands selected by DSCP per-hop behaviour class —
    the priority-based network management arms (Figs 5, 6).

``GuaranteedRateQueue``
    Per-flow token-bucket policed reservations layered over a
    DiffServQueue — the IntServ/RSVP arms (Fig 7, Table 1).  Traffic
    conforming to an installed reservation is served ahead of
    everything else; non-conforming excess is demoted to its DSCP class
    (and thus competes with, and drowns in, the congestion it was
    supposed to be protected from).

All disciplines account drops and enqueue/dequeue counts so experiments
and tests can assert on loss behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from repro.sim.kernel import Kernel
from repro.sim.quantize import clamp
from repro.net.diffserv import PhbClass, classify, drop_precedence
from repro.net.packet import Packet


class TokenBucket:
    """A token bucket metering one reserved flow.

    Tokens are *bytes*; they accrue at ``rate_bps / 8`` per second up to
    ``depth_bytes``.  A packet conforms if the bucket currently holds at
    least its size.

    The stored token count satisfies ``0 <= _tokens <= depth_bytes`` at
    all times (the :mod:`repro.sim.quantize` policy): refill and
    consumption both clamp, so float accumulation across millions of
    refills can never drift the bucket outside its documented range.
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
            self._tokens = clamp(
                self._tokens + elapsed * self.rate_bps / 8.0,
                0.0, self.depth_bytes,
            )
            self._last_update = now

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens

    def try_consume(self, nbytes: int) -> bool:
        """Consume ``nbytes`` tokens if available; returns conformance."""
        self._refill()
        if self._tokens >= nbytes:
            self._tokens = clamp(self._tokens - nbytes, 0.0, self.depth_bytes)
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
    def _accept(self, packet: Packet) -> bool:
        self.enqueued += 1
        return True

    def _drop(self, packet: Packet) -> bool:
        self.dropped += 1
        self.drops_by_flow[packet.flow_id] = (
            self.drops_by_flow.get(packet.flow_id, 0) + 1
        )
        if self.on_drop is not None:
            self.on_drop(packet)
        return False

    def _record_dequeue(self, packet: Optional[Packet]) -> Optional[Packet]:
        if packet is not None:
            self.dequeued += 1
        return packet


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
        return self._accept(packet)

    def dequeue(self) -> Optional[Packet]:
        packet = self._queue.popleft() if self._queue else None
        return self._record_dequeue(packet)

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

    #: Band-fill fraction above which each AF drop precedence is
    #: rejected (precedence 1 only drops when the band is full).
    DROP_PRECEDENCE_THRESHOLDS = {1: 1.0, 2: 2.0 / 3.0, 3: 1.0 / 3.0}

    #: AF bands, where RFC 2597 drop precedence applies.
    _ASSURED_BANDS = frozenset((PhbClass.ASSURED4, PhbClass.ASSURED3,
                                PhbClass.ASSURED2, PhbClass.ASSURED1))

    def __init__(
        self,
        band_capacity: int = 100,
        name: str = "diffserv",
        capacities: Optional[Dict[PhbClass, int]] = None,
    ) -> None:
        super().__init__(name=name)
        self._bands: Dict[PhbClass, deque] = {phb: deque() for phb in PhbClass}
        self._capacities = {
            phb: (capacities or {}).get(phb, band_capacity) for phb in PhbClass
        }
        # Dequeue scans bands most- to least-preferred on every packet;
        # a precomputed deque list avoids re-iterating the enum class
        # (enum iteration is surprisingly expensive on this hot path).
        self._band_order = tuple(self._bands[phb] for phb in PhbClass)

    def enqueue(self, packet: Packet) -> bool:
        band = classify(packet.dscp)
        queue = self._bands[band]
        threshold = self._capacities[band]
        if band in self._ASSURED_BANDS:
            precedence = drop_precedence(packet.dscp)
            threshold *= self.DROP_PRECEDENCE_THRESHOLDS[precedence]
        if len(queue) >= threshold:
            return self._drop(packet)
        queue.append(packet)
        return self._accept(packet)

    def dequeue(self) -> Optional[Packet]:
        for queue in self._band_order:  # most- to least-preferred
            if queue:
                return self._record_dequeue(queue.popleft())
        return self._record_dequeue(None)

    def band_depth(self, phb: PhbClass) -> int:
        return len(self._bands[phb])

    def __len__(self) -> int:
        # Counted from the deques themselves, never from the books: the
        # invariant checker verifies ``len(q) == enqueued - dequeued``.
        return sum(map(len, self._band_order))


class GuaranteedRateQueue(QueueDiscipline):
    """IntServ guaranteed-rate service over a DiffServ base.

    Flows with installed reservations are policed by per-flow token
    buckets at enqueue time:

    * conforming packets join the *reserved* queue, served strictly
      first (the integrated-services guarantee);
    * non-conforming packets are demoted into the underlying DiffServ
      bands according to their DSCP, i.e. excess traffic receives
      exactly the treatment it would have had with no reservation.

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
        super().__init__(name=name)
        self._kernel = kernel
        self._reserved: deque = deque()
        self.reserved_capacity = int(reserved_capacity)
        self._base = DiffServQueue(band_capacity=band_capacity)
        # Base-queue drops (demotion-then-overflow) are folded into this
        # queue's books through the base's own on_drop hook, so every
        # drop increments drops_by_flow and fires self.on_drop exactly
        # once, whichever internal path rejected the packet.
        self._base.on_drop = self._mirror_base_drop
        self._buckets: Dict[str, TokenBucket] = {}
        #: Packets that conformed to a reservation (observability).
        self.conformed = 0
        #: Packets demoted for exceeding their reservation.
        self.demoted = 0

    # -- reservation management -----------------------------------------
    def install_reservation(
        self, flow_id: str, rate_bps: float, depth_bytes: int
    ) -> None:
        """Create/replace the token bucket policing ``flow_id``."""
        self._buckets[flow_id] = TokenBucket(self._kernel, rate_bps, depth_bytes)

    def remove_reservation(self, flow_id: str) -> None:
        self._buckets.pop(flow_id, None)

    def reserved_flows(self) -> Dict[str, TokenBucket]:
        return dict(self._buckets)

    # -- discipline -------------------------------------------------------
    def _mirror_base_drop(self, packet: Packet) -> None:
        self._drop(packet)

    def enqueue(self, packet: Packet) -> bool:
        bucket = self._buckets.get(packet.flow_id)
        if bucket is not None and bucket.try_consume(packet.size_bytes):
            if len(self._reserved) >= self.reserved_capacity:
                return self._drop(packet)
            self.conformed += 1
            self._reserved.append(packet)
            return self._accept(packet)
        if bucket is not None:
            self.demoted += 1
        accepted = self._base.enqueue(packet)
        if accepted:
            return self._accept(packet)
        # The base rejected it; its drop already mirrored into our books.
        return False

    def dequeue(self) -> Optional[Packet]:
        if self._reserved:
            return self._record_dequeue(self._reserved.popleft())
        packet = self._base.dequeue()
        return self._record_dequeue(packet)

    def __len__(self) -> int:
        return len(self._reserved) + len(self._base)
