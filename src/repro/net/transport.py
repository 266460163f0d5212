"""Transport endpoints: datagram sockets and reliable streams.

``DatagramSocket``
    UDP-like: unreliable, unordered, message-per-packet.  The A/V
    Streaming Service sends media frames over these, so congestion loss
    turns directly into lost frames (the Fig 7 phenomenon).

``StreamConnection`` / ``StreamListener``
    TCP-like: reliable, in-order message delivery with fragmentation to
    MTU, cumulative ACKs, go-back-N retransmission with exponential
    backoff, and fast retransmit on triple duplicate ACKs.  GIOP
    connections ride on these, so congestion loss turns into latency
    spikes (the Fig 4b phenomenon: "latency fluctuates widely between a
    few milliseconds to over a second").

Both carry a configurable DSCP — the hook TAO's extended protocol
properties use to mark traffic (paper section 3.2).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.net.diffserv import Dscp
from repro.net.nic import Nic
from repro.net.packet import MTU_BYTES, TCP, UDP, Packet

#: Receive callback for datagram sockets: (payload, packet) -> None.
DatagramReceiver = Callable[[Any, Packet], None]
#: Receive callback for streams: (payload, message_meta) -> None.
MessageReceiver = Callable[[Any, "MessageMeta"], None]


class DatagramSocket:
    """An unreliable, unordered message endpoint (UDP-like)."""

    def __init__(
        self,
        kernel: Kernel,
        nic: Nic,
        port: Optional[int] = None,
        on_receive: Optional[DatagramReceiver] = None,
    ) -> None:
        self.kernel = kernel
        self.nic = nic
        self.port = port if port is not None else nic.allocate_port()
        self.on_receive = on_receive
        self.sent = 0
        self.received = 0
        self._closed = False
        self._src = nic.host.name
        self._packet_id = kernel.ids("packet")
        #: Default flow id per (dst, dst_port): the string ``Packet``
        #: would otherwise format for every datagram.
        self._flow_ids: Dict[Tuple[str, int], str] = {}
        nic.bind(UDP, self.port, self._deliver)

    def send_to(
        self,
        dst: str,
        dst_port: int,
        payload: Any = None,
        payload_bytes: int = 0,
        dscp: Dscp = Dscp.BE,
        flow_id: Optional[str] = None,
    ) -> bool:
        """Fire-and-forget one datagram; False if dropped at first hop."""
        if self._closed:
            raise RuntimeError("socket is closed")
        if payload_bytes < 0:
            raise ValueError(
                f"payload size must not be negative, got {payload_bytes}")
        if not flow_id:
            key = (dst, dst_port)
            flow_id = self._flow_ids.get(key)
            if flow_id is None:
                flow_id = self._flow_ids[key] = (
                    f"{self._src}:{self.port}->{dst}:{dst_port}")
        packet = Packet(self._src, dst, self.port, dst_port, UDP,
                        payload, payload_bytes, dscp, flow_id,
                        self.kernel.now, self._packet_id())
        self.sent += 1
        return self.nic.send(packet)

    def _deliver(self, packet: Packet) -> None:
        self.received += 1
        if self.on_receive is not None:
            self.on_receive(packet.payload, packet)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.nic.unbind(UDP, self.port)


class MessageMeta:
    """Delivery metadata handed to stream message receivers."""

    __slots__ = ("message_id", "sent_at", "delivered_at", "size_bytes")

    def __init__(
        self, message_id: int, sent_at: float, delivered_at: float, size_bytes: int
    ) -> None:
        self.message_id = message_id
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.size_bytes = size_bytes

    @property
    def latency(self) -> float:
        return self.delivered_at - self.sent_at


class _Segment:
    """One stream data fragment in flight."""

    __slots__ = (
        "seq", "message_id", "chunk_index", "chunk_count", "data",
        "nbytes", "sent_at", "last_tx", "retransmitted",
    )

    kind = "data"

    def __init__(
        self,
        seq: int,
        message_id: int = 0,
        chunk_index: int = 0,
        chunk_count: int = 0,
        data: Any = None,
        nbytes: int = 0,
        sent_at: float = 0.0,
    ) -> None:
        self.seq = seq
        self.message_id = message_id
        self.chunk_index = chunk_index
        self.chunk_count = chunk_count
        self.data = data
        self.nbytes = nbytes
        self.sent_at = sent_at
        self.last_tx = sent_at
        self.retransmitted = False


class _Ack:
    """A cumulative acknowledgement: the next seq the receiver expects."""

    __slots__ = ("seq", "ecn_echo")

    kind = "ack"

    def __init__(self, seq: int, ecn_echo: bool) -> None:
        self.seq = seq
        #: The receiver saw an ECN congestion mark.
        self.ecn_echo = ecn_echo


class StreamConnection:
    """A reliable, ordered, message-oriented connection (TCP-like).

    Create the client side with :meth:`connect`; server sides are
    created by :class:`StreamListener`.  Messages larger than the MTU
    are fragmented; delivery is exactly-once and in order.
    """

    INITIAL_RTO = 0.2
    MIN_RTO = 0.05
    MAX_RTO = 4.0
    #: Hard cap on the congestion window (segments).
    WINDOW = 128
    #: Initial congestion window / post-RTO restart window.
    INITIAL_CWND = 4
    DUP_ACK_THRESHOLD = 3
    #: Consecutive unanswered RTOs before the connection gives up
    #: (mirrors TCP's R2 threshold); prevents a dead peer from keeping
    #: retransmission timers alive forever.
    MAX_CONSECUTIVE_RTOS = 12

    def __init__(
        self,
        kernel: Kernel,
        nic: Nic,
        local_port: int,
        remote_host: str,
        remote_port: int,
        dscp: Dscp = Dscp.BE,
        on_message: Optional[MessageReceiver] = None,
        max_rtos: Optional[int] = None,
        window: Optional[int] = None,
    ) -> None:
        self.kernel = kernel
        self.nic = nic
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port = remote_port
        self.dscp = dscp
        self.on_message = on_message
        #: Per-connection give-up threshold; QoS layers (e.g. pub-sub
        #: RELIABLE endpoints) may bound retransmission effort below
        #: the class default.
        self.max_consecutive_rtos = (
            self.MAX_CONSECUTIVE_RTOS if max_rtos is None else int(max_rtos))
        #: Per-connection cwnd cap: low-rate flows bound their slow-
        #: start overshoot well below the default bulk window.
        self.window = self.WINDOW if window is None else int(window)
        # The per-connection part of every packet header: the source
        # host and the flow id (the exact string ``Packet`` formats
        # when given none), built once here instead of per segment.
        self._src = nic.host.name
        self._flow_id = f"{self._src}:{local_port}->{remote_host}:{remote_port}"
        self._packet_id = kernel.ids("packet")
        self._message_id = kernel.ids("message")
        #: The listener that accepted this connection (server side
        #: only); it owns the port, so closing must not unbind it.
        self._listener: Optional["StreamListener"] = None
        # --- sender state ---
        self._next_seq = 0
        self._snd_una = 0  # oldest unacked seq
        self._in_flight: Dict[int, _Segment] = {}
        self._backlog: Deque[_Segment] = deque()
        self._rto = self.INITIAL_RTO
        self._rto_event: Optional[ScheduledEvent] = None
        self._dup_acks = 0
        self._consecutive_rtos = 0
        # RFC 6298 estimator state (None until the first sample).
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        # Slow start / AIMD congestion control (segment units).
        self._cwnd = float(self.INITIAL_CWND)
        self._ssthresh = float(self.window)
        self._last_ecn_reaction = float("-inf")
        #: Congestion-window reductions triggered by ECN echoes.
        self.ecn_responses = 0
        # --- receiver state ---
        self._expected_seq = 0
        self._out_of_order: Dict[int, _Segment] = {}
        # --- stats ---
        self.messages_sent = 0
        self.messages_delivered = 0
        #: Segments sent again (RTO, fast retransmit, NewReno hole).
        self.retransmissions = 0
        self.closed = False
        #: Invoked exactly once when the connection closes (give-up or
        #: explicit close); lets owners fail work parked on the
        #: connection instead of leaving it waiting forever.
        self.on_close: Optional[Callable[["StreamConnection"], None]] = None

    # ------------------------------------------------------------------
    # Establishment
    # ------------------------------------------------------------------
    @classmethod
    def connect(
        cls,
        kernel: Kernel,
        nic: Nic,
        remote_host: str,
        remote_port: int,
        dscp: Dscp = Dscp.BE,
        on_message: Optional[MessageReceiver] = None,
        max_rtos: Optional[int] = None,
        window: Optional[int] = None,
    ) -> "StreamConnection":
        """Open a client connection from an ephemeral local port."""
        local_port = nic.allocate_port()
        conn = cls(
            kernel, nic, local_port, remote_host, remote_port,
            dscp=dscp, on_message=on_message, max_rtos=max_rtos,
            window=window,
        )
        nic.bind(TCP, local_port, conn._deliver)
        return conn

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_message(self, payload: Any, payload_bytes: int) -> int:
        """Queue one application message; returns its message id."""
        if self.closed:
            raise RuntimeError("connection is closed")
        if payload_bytes < 0:
            raise ValueError(
                f"payload size must not be negative, got {payload_bytes}")
        message_id = self._message_id()
        now = self.kernel.now
        chunk_count = -(-payload_bytes // MTU_BYTES) or 1  # ceil div
        last = chunk_count - 1
        seq = self._next_seq
        append = self._backlog.append
        # Every chunk but the last is a full MTU of placeholder weight;
        # the last carries the remainder and the payload object.
        for index in range(last):
            append(_Segment(seq + index, message_id, index, chunk_count,
                            None, MTU_BYTES, now))
        seq += last
        append(_Segment(seq, message_id, last, chunk_count, payload,
                        payload_bytes - last * MTU_BYTES, now))
        self._next_seq = seq + 1
        self.messages_sent += 1
        self._pump()
        if self._in_flight and self._rto_event is None:
            self._arm_rto()
        return message_id

    def _pump(self) -> None:
        """Transmit backlog segments while the window has room."""
        backlog = self._backlog
        if backlog:
            in_flight = self._in_flight
            # Nothing _transmit does reaches back into this connection,
            # so the window is the same on every iteration.
            window = int(self._cwnd)
            if window < self.INITIAL_CWND:
                window = self.INITIAL_CWND
            if window > self.window:
                window = self.window
            while backlog and len(in_flight) < window:
                segment = backlog.popleft()
                in_flight[segment.seq] = segment
                self._transmit(segment)

    @property
    def segments_sent(self) -> int:
        """Data segments put on the wire, retransmissions included:
        ``_pump`` sends each backlog segment once, and every retransmit
        site bumps ``retransmissions`` before its ``_transmit``."""
        return self._next_seq - len(self._backlog) + self.retransmissions

    def _transmit(self, segment: _Segment) -> None:
        now = self.kernel.now
        segment.last_tx = now
        self.nic.send(Packet(
            self._src, self.remote_host, self.local_port, self.remote_port,
            TCP, segment, segment.nbytes, self.dscp, self._flow_id,
            now, self._packet_id()))

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def _arm_rto(self) -> None:
        self._rto_event = self.kernel.schedule(self._rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if not self._in_flight or self.closed:
            return
        self._consecutive_rtos += 1
        if self._consecutive_rtos > self.max_consecutive_rtos:
            # Peer looks dead: give up rather than retransmit forever.
            self.close()
            return
        self._ssthresh = max(2.0, self._cwnd / 2)
        self._cwnd = float(self.INITIAL_CWND)
        # A timeout restarts loss recovery from scratch: any dup-ack
        # count accumulated before it is stale and must not be allowed
        # to trigger a spurious fast retransmit afterwards.
        self._dup_acks = 0
        base_segment = self._in_flight.get(self._snd_una)
        if base_segment is not None:
            self.retransmissions += 1
            base_segment.retransmitted = True
            self._trace_retransmit(base_segment, "rto")
            self._transmit(base_segment)
        self._rto = min(self.MAX_RTO, self._rto * 2)
        self._arm_rto()

    def _trace_retransmit(self, segment: _Segment, reason: str) -> None:
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant(
                "net", "stream.retransmit",
                fields={"seq": segment.seq, "reason": reason,
                        "src": self._src, "dst": self.remote_host,
                        "message": segment.message_id},
            )

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _deliver(self, packet: Packet) -> None:
        segment = packet.payload
        if segment.kind == "ack":
            if segment.ecn_echo:
                self._on_ecn_echo()
            self._handle_ack(segment.seq)
        else:
            self._handle_data(segment, packet.ecn)

    def _handle_ack(self, ack_seq: int) -> None:
        if ack_seq > self._snd_una:
            now = self.kernel.now
            # One walk over the acked span: release each segment, note
            # the newest one released and whether any was retransmitted,
            # and grow the congestion window per acked segment (slow
            # start below ssthresh, linear AIMD above it).
            in_flight = self._in_flight
            pop = in_flight.pop
            newest = None
            clean = True
            cwnd = self._cwnd
            ssthresh = self._ssthresh
            for seq in range(self._snd_una, ack_seq):
                segment = pop(seq, None)
                if segment is not None:
                    newest = segment
                    if segment.retransmitted:
                        clean = False
                if cwnd < ssthresh:
                    cwnd += 1.0
                else:
                    cwnd += 1.0 / cwnd
            self._cwnd = cwnd
            srtt = self._srtt
            if newest is not None and clean:
                # Karn's algorithm, range form: a cumulative ack whose
                # span includes any retransmission is ambiguous — and
                # so is one that releases segments merely *buffered*
                # behind a retransmitted hole.  Only a clean advance
                # gives a sample, measured on its newest segment: the
                # RFC 6298 smoothed RTT / variance update.
                sample = now - newest.last_tx
                if srtt is None:
                    srtt = sample
                    self._rttvar = sample / 2
                else:
                    error = srtt - sample  # |error| below, as abs() would
                    self._rttvar = 0.75 * self._rttvar + 0.25 * (
                        error if error >= 0 else -error)
                    srtt = 0.875 * srtt + 0.125 * sample
                self._srtt = srtt
            if srtt is not None:
                # The RTO from the estimate, which also sheds any
                # backoff once recovery makes progress:
                # min(MAX_RTO, max(MIN_RTO, rto)), operand for operand.
                rto = srtt + 4 * self._rttvar
                self._rto = ((rto if rto < self.MAX_RTO else self.MAX_RTO)
                             if rto > self.MIN_RTO else self.MIN_RTO)
            else:
                # No RTT sample ever completed (every ack so far was
                # ambiguous under Karn) — without this the connection
                # would keep the fully backed-off RTO (up to MAX_RTO)
                # for the rest of its life.
                self._rto = self.INITIAL_RTO
            self._snd_una = ack_seq
            self._dup_acks = 0
            self._consecutive_rtos = 0
            self._pump()
            # RFC 6298 (5.2, 5.3): once the window has refilled, the
            # timer restarts, or stops if nothing is outstanding.  The
            # restart moves the pending handle (sim/kernel.py,
            # "Restarting a pending timer").
            event = self._rto_event
            if not in_flight:
                self._cancel_rto()
            elif event is None:
                self._arm_rto()
            else:
                self._rto_event = self.kernel.restart(event, self._rto)
            # NewReno-style recovery: a partial ack exposing a stale
            # hole means that hole was lost too — retransmit it now
            # rather than after another full RTO.
            hole = in_flight.get(ack_seq)
            if (
                hole is not None
                and srtt is not None
                and now - hole.last_tx > srtt + 2 * self._rttvar
            ):
                self.retransmissions += 1
                hole.retransmitted = True
                self._trace_retransmit(hole, "newreno-hole")
                self._transmit(hole)
        elif ack_seq == self._snd_una and self._in_flight:
            # Even a duplicate ack proves the peer (and the return
            # path) is alive — it must reset the give-up counter just
            # like an advancing one.
            self._consecutive_rtos = 0
            self._dup_acks += 1
            if self._dup_acks >= self.DUP_ACK_THRESHOLD:
                self._dup_acks = 0
                self._ssthresh = max(2.0, self._cwnd / 2)
                self._cwnd = self._ssthresh
                base_segment = self._in_flight.get(self._snd_una)
                if base_segment is not None:
                    self.retransmissions += 1
                    base_segment.retransmitted = True
                    self._trace_retransmit(base_segment, "fast-retransmit")
                    self._transmit(base_segment)

    def _handle_data(self, segment: _Segment, congestion_marked: bool) -> None:
        seq = segment.seq
        expected = self._expected_seq
        out_of_order = self._out_of_order
        if seq == expected and not out_of_order:
            # The common case: the next segment, nothing buffered.
            self._expected_seq = expected + 1
            self._assemble(segment)
        elif seq >= expected:
            out_of_order.setdefault(seq, segment)
            while self._expected_seq in out_of_order:
                ready = out_of_order.pop(self._expected_seq)
                self._expected_seq += 1
                self._assemble(ready)
        # Acknowledge cumulatively, echoing any ECN mark.
        self.nic.send(Packet(
            self._src, self.remote_host, self.local_port, self.remote_port,
            TCP, _Ack(self._expected_seq, congestion_marked), 0, self.dscp,
            self._flow_id, self.kernel.now, self._packet_id()))

    def _assemble(self, segment: _Segment) -> None:
        # Chunks arrive here in seq order with no gaps, every chunk of a
        # message carries its send time, and every chunk but the last is
        # a full MTU: the last chunk completes the message and carries
        # the payload object.
        count = segment.chunk_count
        if segment.chunk_index != count - 1:
            return
        mid = segment.message_id
        meta = MessageMeta(mid, segment.sent_at, self.kernel.now,
                           (count - 1) * MTU_BYTES + segment.nbytes)
        self.messages_delivered += 1
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant(
                "net", "stream.deliver",
                fields={"message": mid, "host": self._src,
                        "latency": meta.latency, "bytes": meta.size_bytes},
            )
        if self.on_message is not None:
            self.on_message(segment.data, meta)

    def _on_ecn_echo(self) -> None:
        """React to explicit congestion: halve the window, at most once
        per round-trip (RFC 3168 discipline)."""
        now = self.kernel.now
        rtt = self._srtt if self._srtt is not None else self.INITIAL_RTO
        if now - self._last_ecn_reaction <= rtt:
            return
        self._last_ecn_reaction = now
        self._ssthresh = max(2.0, self._cwnd / 2)
        self._cwnd = self._ssthresh
        self.ecn_responses += 1

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Segments sent but not yet acknowledged."""
        return len(self._in_flight)

    @property
    def send_depth(self) -> int:
        """Unacknowledged plus not-yet-transmitted segments.

        Senders that prefer skipping to queueing (video) watch this to
        decide whether the connection is keeping up.
        """
        return len(self._in_flight) + len(self._backlog)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._cancel_rto()
        listener = self._listener
        if listener is None:
            self.nic.unbind(TCP, self.local_port)
        else:
            # The port is the listener's and serves its other peers; a
            # later segment from this peer opens a fresh connection.
            key = (self.remote_host, self.remote_port)
            if listener.connections.get(key) is self:
                del listener.connections[key]
        if self.on_close is not None:
            callback, self.on_close = self.on_close, None
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StreamConnection {self.nic.host.name}:{self.local_port}->"
            f"{self.remote_host}:{self.remote_port} dscp={self.dscp.name}>"
        )


class StreamListener:
    """Accepts stream connections on a well-known port.

    Per-peer server-side connections are created lazily on the first
    segment from a new (host, port) pair — a simplification of the SYN
    handshake that preserves what the experiments measure.
    """

    def __init__(
        self,
        kernel: Kernel,
        nic: Nic,
        port: int,
        on_connection: Optional[Callable[[StreamConnection], None]] = None,
        on_message: Optional[MessageReceiver] = None,
        dscp: Dscp = Dscp.BE,
    ) -> None:
        self.kernel = kernel
        self.nic = nic
        self.port = int(port)
        self.on_connection = on_connection
        self.on_message = on_message
        self.dscp = dscp
        self.connections: Dict[Tuple[str, int], StreamConnection] = {}
        nic.bind(TCP, self.port, self._deliver)

    def _deliver(self, packet: Packet) -> None:
        key = (packet.src, packet.src_port)
        conn = self.connections.get(key)
        if conn is None:
            conn = StreamConnection(
                self.kernel,
                self.nic,
                local_port=self.port,
                remote_host=packet.src,
                remote_port=packet.src_port,
                # Mirror the peer's marking: both directions of one
                # connection carry the same DSCP, as on a real socket
                # with a per-connection TOS.
                dscp=packet.dscp,
                on_message=self.on_message,
            )
            conn._listener = self
            self.connections[key] = conn
            if self.on_connection is not None:
                self.on_connection(conn)
        conn._deliver(packet)

    def close(self) -> None:
        self.nic.unbind(TCP, self.port)
        for conn in list(self.connections.values()):
            conn.close()
