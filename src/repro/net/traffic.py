"""Competing network traffic generators.

The paper's experiments congest the network with constant-rate cross
traffic (16 Mbps in Figs 4-6; a 43.8 Mbps burst in Fig 7/Table 1);
:class:`CbrTrafficSource` reproduces that.

Bulk cross traffic is the simulator's single largest event producer
(hundreds of thousands of emissions per figure), so the emission timer
is a single :class:`ScheduledEvent`, re-armed in place after each send
(:mod:`repro.sim.kernel`, "Re-arming in place"): no allocation and no
call frame per packet.  The fresh sequence number is drawn at the exact
point a ``schedule()`` call would draw it, so dispatch order is that of
one new event per packet.  The emission re-arms only the handle that is
firing: if ``stop()`` ran inside the send, that chain ends there, and a
``start()`` in the same send has already armed the one that continues.
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.net.diffserv import Dscp
from repro.net.nic import Nic
from repro.net.packet import MTU_BYTES, UDP, Packet


class CbrTrafficSource:
    """Constant-bit-rate traffic: evenly spaced fixed-size packets."""

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
        self._packet_id = kernel.ids("packet")
        self.packets_sent = 0
        self._running = False
        self._next_emit: Optional[ScheduledEvent] = None
        #: Seconds between emissions (40 header bytes ride on each packet).
        self._gap = ((self.packet_bytes + 40) * 8) / self.rate_bps

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._next_emit = self.kernel.schedule(self._gap, self._emit)

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
        event = self._next_emit  # the handle firing now
        kernel = self.kernel
        # Positional (src, dst, src_port, dst_port, protocol, payload,
        # payload_bytes, dscp, flow_id, created_at, packet_id): no keyword
        # matching on the simulator's most-called constructor site.
        packet = Packet(
            self._src_name, self.dst, self.src_port, self.dst_port,
            UDP, None, self.packet_bytes, self.dscp,
            self._flow_id, kernel.now, self._packet_id(),
        )
        self.packets_sent += 1
        self.nic.send(packet)
        if self._next_emit is event:
            # Re-armed in place (sim/kernel.py, "Re-arming in place").
            seq = kernel._seq
            kernel._seq = seq + 1
            event._kernel = kernel
            heappush(kernel._heap, (kernel.now + self._gap, seq, event))
        # Otherwise stop() ran inside nic.send (and start() may have
        # armed a fresh handle): this chain ends here.
