"""Competing network traffic generators.

The paper's experiments congest the network with constant-rate cross
traffic (16 Mbps in Figs 4-6; a 43.8 Mbps burst in Fig 7/Table 1).
:class:`CbrTrafficSource` reproduces that; :class:`PoissonTrafficSource`
adds a burstier alternative used by tests and ablations.

Bulk cross traffic is the simulator's single largest event producer
(hundreds of thousands of emissions per figure), so the emit path is
built for throughput while staying bit-identical to the one-event-per
-packet original:

* inter-packet gaps are produced in vectorized batches
  (:meth:`_TrafficSource._gap_batch`) — one constant fill for CBR, one
  block of RNG draws for Poisson (same draws, same order as the
  scalar path, just computed ahead of time);
* the emission timer is a single :class:`ScheduledEvent` re-armed via
  :meth:`~repro.sim.kernel.Kernel.rearm` instead of a fresh allocation
  per packet — the fresh sequence number is drawn at the exact point
  the old code called ``schedule()``, so dispatch order is unchanged.

The source's RNG must be private to it (the default is); batching
draws from a stream shared with another consumer would reorder that
consumer's draws.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.net.diffserv import Dscp
from repro.net.nic import Nic
from repro.net.packet import MTU_BYTES, Packet, Protocol


class _TrafficSource:
    """Shared machinery: schedule packet emissions until stopped."""

    #: Inter-packet gaps precomputed per batch.
    GAP_BATCH = 256

    def __init__(
        self,
        kernel: Kernel,
        nic: Nic,
        dst: str,
        rate_bps: float,
        packet_bytes: int = MTU_BYTES,
        dscp: Dscp = Dscp.BE,
        dst_port: int = 9,  # the traditional discard port
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if packet_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {packet_bytes}")
        self.kernel = kernel
        self.nic = nic
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self.packet_bytes = int(packet_bytes)
        self.dscp = dscp
        self.dst_port = dst_port
        self.src_port = nic.allocate_port()
        # Constant for the source's lifetime; hoisted out of the
        # per-packet emit path.
        self._flow_id = f"crosstraffic:{nic.host.name}:{self.src_port}"
        self._src_name = nic.host.name
        self.packets_sent = 0
        self.bytes_sent = 0
        self._running = False
        self._next_emit: Optional[ScheduledEvent] = None
        self._gaps: List[float] = []
        self._gap_i = 0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._next_emit = self.kernel.schedule(self._next_gap(), self._emit)

    def stop(self) -> None:
        self._running = False
        if self._next_emit is not None:
            self._next_emit.cancel()
            self._next_emit = None

    def run_for(self, duration: float) -> None:
        """Start now and stop automatically after ``duration`` seconds."""
        self.start()
        self.kernel.schedule(duration, self.stop)

    def _emit(self) -> None:
        if not self._running:
            return
        # Positional (src, dst, src_port, dst_port, protocol, payload,
        # payload_bytes, dscp, flow_id, created_at): no keyword matching
        # on the simulator's most-called constructor site.
        packet = Packet(
            self._src_name, self.dst, self.src_port, self.dst_port,
            Protocol.UDP, None, self.packet_bytes, self.dscp,
            self._flow_id, self.kernel.now,
        )
        self.packets_sent += 1
        self.bytes_sent += packet.size_bytes
        self.nic.send(packet)
        event = self._next_emit
        if (event is not None and not event.cancelled
                and event._kernel is None):
            self.kernel.rearm(event, self._next_gap())
        else:
            # stop()+start() churn inside nic.send's downstream effects;
            # fall back to a fresh handle.
            self._next_emit = self.kernel.schedule(self._next_gap(),
                                                   self._emit)

    def _next_gap(self) -> float:
        i = self._gap_i
        gaps = self._gaps
        if i >= len(gaps):
            self._gaps = gaps = self._gap_batch(self.GAP_BATCH)
            i = 0
        self._gap_i = i + 1
        return gaps[i]

    def _gap_batch(self, n: int) -> List[float]:
        """The next ``n`` inter-packet gaps, oldest first.

        Subclasses with cheap closed forms override this with a bulk
        fill; the default simply calls :meth:`_gap` n times, which
        consumes any RNG in exactly the order the scalar path did.
        """
        gap = self._gap
        return [gap() for _ in range(n)]

    def _gap(self) -> float:
        raise NotImplementedError


class CbrTrafficSource(_TrafficSource):
    """Constant-bit-rate traffic: evenly spaced fixed-size packets."""

    def _gap(self) -> float:
        return ((self.packet_bytes + 40) * 8) / self.rate_bps

    def _gap_batch(self, n: int) -> List[float]:
        return [self._gap()] * n


class PoissonTrafficSource(_TrafficSource):
    """Poisson packet arrivals at the requested average rate."""

    def __init__(self, *args, rng: Optional[random.Random] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rng = rng or random.Random(0)

    def _gap(self) -> float:
        mean = ((self.packet_bytes + 40) * 8) / self.rate_bps
        return self.rng.expovariate(1.0 / mean)

    def _gap_batch(self, n: int) -> List[float]:
        mean = ((self.packet_bytes + 40) * 8) / self.rate_bps
        expovariate = self.rng.expovariate
        lambd = 1.0 / mean
        return [expovariate(lambd) for _ in range(n)]
