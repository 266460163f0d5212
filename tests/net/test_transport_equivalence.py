"""Differential test: the transport against its per-packet oracle.

``StreamConnection`` used to build every data segment and every ACK
with nine keyword arguments and let ``Packet`` format the flow id per
packet; it walked each cumulative ACK three times (a ``popped`` list, a
``live`` list, an ``all()`` generator) plus a fourth loop for window
growth, read its window through a property on every ``_pump``
iteration, drained a list backlog with ``pop(0)``, and sent even the
next in-order segment through the out-of-order buffer.  It now builds
each connection's header once, constructs packets positionally and
walks those paths in one pass.  An ACK is now its own two-field type,
a message completes on its last chunk with no per-message books, and
the segment count is derived from the sequence numbers.  The old
classes and their eleven-slot ``_Segment`` are kept here, verbatim in
behaviour, as the oracle: over drawn message sizes, send times,
windows, give-up thresholds, loss bursts and a RED/ECN or drop-tail
bottleneck, both must execute the same kernel events, deliver the same
messages at the same instants, keep the same books, put the same
packets (id, flow id, size) on the wire and write the same JSONL trace.
"""

import io
import random

from hypothesis import example, given, settings, strategies as st

import repro.net.transport as transport
from repro.sim import Kernel
from repro.sim.rng import RngRegistry
from repro.oskernel import Host
from repro.net import FifoQueue, Network
from repro.net.aqm import RedQueue
from repro.net.diffserv import Dscp
from repro.net.packet import MTU_BYTES, Packet, Protocol
from repro.net.transport import MessageMeta
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.obs.sinks import JsonlSink
from repro.obs.trace import Tracer


# ----------------------------------------------------------------------
# The oracle: the parent commit's three transport classes.  They keep
# the parent's names because ``event.dispatch`` trace records name the
# callback by ``__qualname__``; the classes under test are reached as
# ``transport.*``.
# ----------------------------------------------------------------------
class _Segment:
    __slots__ = (
        "seq", "kind", "message_id", "chunk_index", "chunk_count",
        "data", "nbytes", "sent_at", "last_tx", "retransmitted",
        "ecn_echo",
    )

    def __init__(self, seq, kind, message_id=0, chunk_index=0,
                 chunk_count=0, data=None, nbytes=0, sent_at=0.0):
        self.seq = seq
        self.kind = kind
        self.message_id = message_id
        self.chunk_index = chunk_index
        self.chunk_count = chunk_count
        self.data = data
        self.nbytes = nbytes
        self.sent_at = sent_at
        self.last_tx = sent_at
        self.retransmitted = False
        self.ecn_echo = False


class DatagramSocket:
    def __init__(self, kernel, nic, port=None, on_receive=None):
        self.kernel = kernel
        self.nic = nic
        self.port = port if port is not None else nic.allocate_port()
        self.on_receive = on_receive
        self.sent = 0
        self.received = 0
        self._closed = False
        nic.bind(Protocol.UDP, self.port, self._deliver)

    def send_to(self, dst, dst_port, payload=None, payload_bytes=0,
                dscp=Dscp.BE, flow_id=None):
        if self._closed:
            raise RuntimeError("socket is closed")
        packet = Packet(
            src=self.nic.host.name, dst=dst, src_port=self.port,
            dst_port=dst_port, protocol=Protocol.UDP, payload=payload,
            payload_bytes=payload_bytes, dscp=dscp, flow_id=flow_id,
            created_at=self.kernel.now,
            packet_id=self.kernel.ids("packet")(),
        )
        self.sent += 1
        return self.nic.send(packet)

    def _deliver(self, packet):
        self.received += 1
        if self.on_receive is not None:
            self.on_receive(packet.payload, packet)


class StreamConnection:
    INITIAL_RTO = 0.2
    MIN_RTO = 0.05
    MAX_RTO = 4.0
    WINDOW = 128
    INITIAL_CWND = 4
    DUP_ACK_THRESHOLD = 3
    MAX_CONSECUTIVE_RTOS = 12

    def __init__(self, kernel, nic, local_port, remote_host, remote_port,
                 dscp=Dscp.BE, on_message=None, max_rtos=None, window=None):
        self.kernel = kernel
        self.nic = nic
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port = remote_port
        self.dscp = dscp
        self.on_message = on_message
        self.max_consecutive_rtos = (
            self.MAX_CONSECUTIVE_RTOS if max_rtos is None else int(max_rtos))
        self.window = self.WINDOW if window is None else int(window)
        self._next_seq = 0
        self._snd_una = 0
        self._in_flight = {}
        self._backlog = []
        self._rto = self.INITIAL_RTO
        self._rto_event = None
        self._dup_acks = 0
        self._consecutive_rtos = 0
        self._srtt = None
        self._rttvar = 0.0
        self._cwnd = float(self.INITIAL_CWND)
        self._ssthresh = float(self.window)
        self._last_ecn_reaction = float("-inf")
        self.ecn_responses = 0
        self._expected_seq = 0
        self._out_of_order = {}
        self._partial = {}
        self._partial_bytes = {}
        self._partial_t0 = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.segments_sent = 0
        self.retransmissions = 0
        self.closed = False
        self.on_close = None

    @classmethod
    def connect(cls, kernel, nic, remote_host, remote_port, dscp=Dscp.BE,
                on_message=None, max_rtos=None, window=None):
        local_port = nic.allocate_port()
        conn = cls(kernel, nic, local_port, remote_host, remote_port,
                   dscp=dscp, on_message=on_message, max_rtos=max_rtos,
                   window=window)
        nic.bind(Protocol.TCP, local_port, conn._deliver)
        return conn

    def send_message(self, payload, payload_bytes):
        if self.closed:
            raise RuntimeError("connection is closed")
        message_id = self.kernel.ids("message")()
        now = self.kernel.now
        chunk_count = max(1, -(-payload_bytes // MTU_BYTES))
        remaining = payload_bytes
        for index in range(chunk_count):
            nbytes = min(MTU_BYTES, remaining) if payload_bytes else 0
            remaining -= nbytes
            segment = _Segment(
                seq=self._next_seq, kind="data", message_id=message_id,
                chunk_index=index, chunk_count=chunk_count,
                data=payload if index == chunk_count - 1 else None,
                nbytes=nbytes, sent_at=now,
            )
            self._next_seq += 1
            self._backlog.append(segment)
        self.messages_sent += 1
        self._pump()
        return message_id

    @property
    def _window(self):
        return min(self.window, max(self.INITIAL_CWND, int(self._cwnd)))

    def _pump(self):
        while self._backlog and len(self._in_flight) < self._window:
            segment = self._backlog.pop(0)
            self._in_flight[segment.seq] = segment
            self._transmit(segment)
        if self._in_flight and self._rto_event is None:
            self._arm_rto()

    def _transmit(self, segment):
        self.segments_sent += 1
        segment.last_tx = self.kernel.now
        packet = Packet(
            src=self.nic.host.name, dst=self.remote_host,
            src_port=self.local_port, dst_port=self.remote_port,
            protocol=Protocol.TCP, payload=segment,
            payload_bytes=segment.nbytes, dscp=self.dscp,
            created_at=self.kernel.now,
            packet_id=self.kernel.ids("packet")(),
        )
        self.nic.send(packet)

    def _arm_rto(self):
        self._rto_event = self.kernel.schedule(self._rto, self._on_rto)

    def _cancel_rto(self):
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_rto(self):
        self._rto_event = None
        if not self._in_flight or self.closed:
            return
        self._consecutive_rtos += 1
        if self._consecutive_rtos > self.max_consecutive_rtos:
            self.close()
            return
        self._ssthresh = max(2.0, self._cwnd / 2)
        self._cwnd = float(self.INITIAL_CWND)
        self._dup_acks = 0
        base_segment = self._in_flight.get(self._snd_una)
        if base_segment is not None:
            self.retransmissions += 1
            base_segment.retransmitted = True
            self._trace_retransmit(base_segment, "rto")
            self._transmit(base_segment)
        self._rto = min(self.MAX_RTO, self._rto * 2)
        self._arm_rto()

    def _trace_retransmit(self, segment, reason):
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant(
                "net", "stream.retransmit",
                fields={"seq": segment.seq, "reason": reason,
                        "src": self.nic.host.name, "dst": self.remote_host,
                        "message": segment.message_id},
            )

    def _deliver(self, packet):
        segment = packet.payload
        if segment.kind == "ack":
            if segment.ecn_echo:
                self._on_ecn_echo()
            self._handle_ack(segment.seq)
        else:
            self._handle_data(segment, congestion_marked=packet.ecn)

    def _update_rtt(self, sample):
        if self._srtt is None:
            self._srtt = sample
            self._rttvar = sample / 2
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample)
            self._srtt = 0.875 * self._srtt + 0.125 * sample
        self._rto = min(
            self.MAX_RTO, max(self.MIN_RTO, self._srtt + 4 * self._rttvar))

    def _handle_ack(self, ack_seq):
        if ack_seq > self._snd_una:
            acked = ack_seq - self._snd_una
            popped = [
                self._in_flight.pop(seq, None)
                for seq in range(self._snd_una, ack_seq)
            ]
            live = [segment for segment in popped if segment is not None]
            if live and all(not s.retransmitted for s in live):
                self._update_rtt(self.kernel.now - live[-1].last_tx)
            elif self._srtt is not None:
                self._rto = min(
                    self.MAX_RTO,
                    max(self.MIN_RTO, self._srtt + 4 * self._rttvar),
                )
            else:
                self._rto = self.INITIAL_RTO
            self._snd_una = ack_seq
            self._dup_acks = 0
            self._consecutive_rtos = 0
            for _ in range(acked):
                if self._cwnd < self._ssthresh:
                    self._cwnd += 1.0
                else:
                    self._cwnd += 1.0 / self._cwnd
            self._cancel_rto()
            self._pump()
            hole = self._in_flight.get(self._snd_una)
            if (
                hole is not None
                and self._srtt is not None
                and self.kernel.now - hole.last_tx
                    > self._srtt + 2 * self._rttvar
            ):
                self.retransmissions += 1
                hole.retransmitted = True
                self._trace_retransmit(hole, "newreno-hole")
                self._transmit(hole)
        elif ack_seq == self._snd_una and self._in_flight:
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

    def _handle_data(self, segment, congestion_marked=False):
        if segment.seq >= self._expected_seq:
            self._out_of_order.setdefault(segment.seq, segment)
            while self._expected_seq in self._out_of_order:
                ready = self._out_of_order.pop(self._expected_seq)
                self._expected_seq += 1
                self._assemble(ready)
        self._send_ack(self._expected_seq, ecn_echo=congestion_marked)

    def _assemble(self, segment):
        mid = segment.message_id
        chunks = self._partial.setdefault(mid, [])
        self._partial_bytes[mid] = self._partial_bytes.get(mid, 0) + segment.nbytes
        self._partial_t0.setdefault(mid, segment.sent_at)
        chunks.append(segment)
        if len(chunks) == segment.chunk_count:
            payload = chunks[-1].data
            meta = MessageMeta(
                message_id=mid,
                sent_at=self._partial_t0.pop(mid),
                delivered_at=self.kernel.now,
                size_bytes=self._partial_bytes.pop(mid),
            )
            del self._partial[mid]
            self.messages_delivered += 1
            tracer = self.kernel.tracer
            if tracer is not None:
                tracer.instant(
                    "net", "stream.deliver",
                    fields={"message": mid, "host": self.nic.host.name,
                            "latency": meta.latency,
                            "bytes": meta.size_bytes},
                )
            if self.on_message is not None:
                self.on_message(payload, meta)

    def _send_ack(self, ack_seq, ecn_echo=False):
        ack = _Segment(seq=ack_seq, kind="ack")
        ack.ecn_echo = ecn_echo
        packet = Packet(
            src=self.nic.host.name, dst=self.remote_host,
            src_port=self.local_port, dst_port=self.remote_port,
            protocol=Protocol.TCP, payload=ack, payload_bytes=0,
            dscp=self.dscp, created_at=self.kernel.now,
            packet_id=self.kernel.ids("packet")(),
        )
        self.nic.send(packet)

    def _on_ecn_echo(self):
        now = self.kernel.now
        rtt = self._srtt if self._srtt is not None else self.INITIAL_RTO
        if now - self._last_ecn_reaction <= rtt:
            return
        self._last_ecn_reaction = now
        self._ssthresh = max(2.0, self._cwnd / 2)
        self._cwnd = self._ssthresh
        self.ecn_responses += 1

    def close(self):
        if self.closed:
            return
        self.closed = True
        self._cancel_rto()
        self.nic.unbind(Protocol.TCP, self.local_port)
        if self.on_close is not None:
            callback, self.on_close = self.on_close, None
            callback(self)


class StreamListener:
    def __init__(self, kernel, nic, port, on_connection=None,
                 on_message=None, dscp=Dscp.BE):
        self.kernel = kernel
        self.nic = nic
        self.port = int(port)
        self.on_connection = on_connection
        self.on_message = on_message
        self.dscp = dscp
        self.connections = {}
        nic.bind(Protocol.TCP, self.port, self._deliver)

    def _deliver(self, packet):
        key = (packet.src, packet.src_port)
        conn = self.connections.get(key)
        if conn is None:
            conn = StreamConnection(
                self.kernel, self.nic, local_port=self.port,
                remote_host=packet.src, remote_port=packet.src_port,
                dscp=packet.dscp, on_message=self.on_message,
            )
            self.connections[key] = conn
            if self.on_connection is not None:
                self.on_connection(conn)
        conn._deliver(packet)


ORACLE = (DatagramSocket, StreamConnection, StreamListener)
CURRENT = (transport.DatagramSocket, transport.StreamConnection,
           transport.StreamListener)


# ----------------------------------------------------------------------
# One world, run with either implementation
# ----------------------------------------------------------------------
#: Run length.  A server-side connection needs 13 silent RTOs (over
#: 30 s) to give up, which the parent handled by unbinding the
#: listener's port; stopping well before that keeps the compared runs
#: inside the behaviour both implementations share.
HORIZON = 15.0

BOOKS = ("segments_sent", "retransmissions", "ecn_responses",
         "messages_sent", "messages_delivered", "closed")


def run_world(impl, messages, datagrams, windows, max_rtos, bursts,
              bottleneck):
    """Two clients talk to one server through ``r`` over a 2 Mbps
    bottleneck; the server answers some messages on the same
    connection, and a third host sends datagrams beside them."""
    datagram_socket, stream_connection, stream_listener = impl
    kernel = Kernel()
    trace = io.StringIO()
    Tracer([JsonlSink(trace)]).attach(kernel)
    net = Network(kernel, default_bandwidth_bps=100e6)
    for name in ("c0", "c1", "u", "s"):
        net.attach_host(Host(kernel, name))
    router = net.add_router("r")
    for name in ("c0", "c1", "u"):
        net.link(name, router)
    if bottleneck == "red":
        qdisc = RedQueue(capacity=60, min_threshold=4, max_threshold=12,
                         max_probability=0.5, weight=0.5,
                         rng=random.Random(2))
    else:
        qdisc = FifoQueue(capacity=8)
    net.link(router, "s", bandwidth_bps=2e6, qdisc_a=qdisc)
    net.compute_routes()

    wire = []
    for name in ("c0", "c1", "u", "s"):
        nic = net.nic_of(name)

        def tapped(packet, _send=nic.send):
            wire.append((packet.packet_id, packet.flow_id,
                         packet.size_bytes))
            return _send(packet)

        nic.send = tapped

    delivered = {"s": [], "c0": [], "c1": [], "udp": []}
    accepted = []

    def on_server_message(payload, meta):
        delivered["s"].append((payload, meta.sent_at, meta.delivered_at,
                               meta.size_bytes))
        client, index, reply_bytes = payload
        if reply_bytes is not None:
            conn = next(c for c in accepted if c.remote_host == client)
            conn.send_message(("re", index), reply_bytes)

    stream_listener(kernel, net.nic_of("s"), 2809,
                    on_connection=accepted.append,
                    on_message=on_server_message)
    clients = []
    for i in range(2):
        name = f"c{i}"
        clients.append(stream_connection.connect(
            kernel, net.nic_of(name), "s", 2809,
            dscp=Dscp.AF11 if i else Dscp.BE,
            on_message=lambda payload, meta, name=name:
                delivered[name].append((payload, meta.sent_at,
                                        meta.delivered_at,
                                        meta.size_bytes)),
            max_rtos=max_rtos[i], window=windows[i]))
    datagram_socket(kernel, net.nic_of("s"), port=7000,
                    on_receive=lambda payload, packet:
                        delivered["udp"].append((payload,
                                                 packet.flow_id)))
    udp = datagram_socket(kernel, net.nic_of("u"))

    def send(conn, payload, nbytes):
        if not conn.closed:
            conn.send_message(payload, nbytes)

    for index, (client, at, nbytes, reply_bytes) in enumerate(messages):
        kernel.schedule(at, send, clients[client],
                        (f"c{client}", index, reply_bytes), nbytes)
    for index, (at, nbytes, flow_id) in enumerate(datagrams):
        kernel.schedule(at, udp.send_to, "s", 7000, index, nbytes,
                        Dscp.EF, flow_id)
    if bursts:
        FaultInjector(kernel, net,
                      rng=RngRegistry(seed=1).stream("faults")).install(
            FaultPlan([FaultEvent("loss_burst", link=link, at=at,
                                  duration=duration, loss=loss)
                       for link, at, duration, loss in bursts]))
    kernel.run(until=HORIZON)
    kernel.tracer.close()
    assert not any(conn.closed for conn in accepted)
    return {
        "events": kernel.events_executed,
        "delivered": delivered,
        "books": [[getattr(conn, attr) for attr in BOOKS]
                  for conn in clients + accepted],
        "udp": (udp.sent,),
        "wire": wire,
        "trace": trace.getvalue(),
    }


def both(**world):
    return [run_world(impl, **world) for impl in (ORACLE, CURRENT)]


SIZES = st.one_of(
    st.sampled_from([0, 1, MTU_BYTES - 1, MTU_BYTES, MTU_BYTES + 1,
                     2 * MTU_BYTES, 7 * MTU_BYTES, 65536]),
    st.integers(min_value=0, max_value=65536),
)
MESSAGES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),
              st.floats(min_value=0.0, max_value=3.0),
              SIZES,
              st.one_of(st.none(), SIZES)),
    min_size=1, max_size=12,
)
DATAGRAMS = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=3.0),
              st.sampled_from([0, 200, 1460]),
              st.sampled_from([None, "", "video"])),
    max_size=6,
)
LINKS = st.sampled_from([["r", "s"], ["c0", "r"], ["c1", "r"]])
BURSTS = st.lists(
    st.tuples(LINKS, st.floats(min_value=0.0, max_value=3.0),
              st.floats(min_value=0.05, max_value=2.0),
              st.sampled_from([0.2, 0.5, 1.0])),
    max_size=2,
)
WORLDS = dict(
    messages=MESSAGES,
    datagrams=DATAGRAMS,
    windows=st.tuples(*[st.sampled_from([None, 1, 2, 4, 8, 64])] * 2),
    max_rtos=st.tuples(*[st.sampled_from([None, 1, 2, 4])] * 2),
    bursts=BURSTS,
    bottleneck=st.sampled_from(["red", "fifo"]),
)

#: A world that retransmits, samples RTT after a retransmitted span,
#: marks with ECN and fragments: the regime the one-pass ACK walk and
#: the in-order fast path have to get right.
LOSSY = dict(
    messages=[(0, 0.0, 65536, 3000), (1, 0.01, 20000, None),
              (0, 0.5, 4500, 0), (1, 1.2, 0, 1500), (0, 2.0, 9000, None)],
    datagrams=[(0.1, 1460, None), (0.2, 200, "video")],
    windows=(None, 8), max_rtos=(None, None),
    bursts=[(["r", "s"], 0.05, 0.6, 0.5), (["c0", "r"], 1.0, 0.4, 1.0)],
    bottleneck="red",
)

#: A world whose loss burst takes a middle chunk (the fifth of six) of
#: c0's request while the last one gets through: the last chunk waits
#: out of order and completes its message from the drain once the hole
#: is retransmitted, the case a last-chunk completion rule must get
#: right.
MIDDLE_CHUNK = dict(
    messages=[(0, 0.0, 9000, 3000), (1, 0.02, 4500, None)],
    datagrams=[(0.01, 200, None)],
    windows=(None, None), max_rtos=(None, None),
    bursts=[(["r", "s"], 0.015, 0.05, 0.5)],
    bottleneck="fifo",
)


@settings(max_examples=120, deadline=None)
@given(**WORLDS)
@example(**LOSSY)
@example(**MIDDLE_CHUNK)
def test_transport_equals_the_per_packet_oracle(**world):
    expected, actual = both(**world)
    assert actual["events"] == expected["events"]
    assert actual["delivered"] == expected["delivered"]
    assert actual["books"] == expected["books"]
    assert actual["udp"] == expected["udp"]
    assert actual["wire"] == expected["wire"]
    assert actual["trace"] == expected["trace"]


def test_the_lossy_world_exercises_recovery():
    """The pinned world does reach retransmission, ECN and fragmented
    replies (else the equivalence would be about a clean wire)."""
    expected, actual = both(**LOSSY)
    assert actual == expected
    books = dict(zip(("c0", "c1"), actual["books"]))
    assert sum(b[BOOKS.index("retransmissions")]
               for b in actual["books"]) > 0
    assert sum(b[BOOKS.index("ecn_responses")] for b in actual["books"]) > 0
    assert books["c0"][BOOKS.index("messages_sent")] == 3
    assert len(actual["delivered"]["c0"]) == 2
    assert '"stream.retransmit"' in actual["trace"]


def test_the_middle_chunk_world_completes_a_message_from_the_drain(
        monkeypatch):
    """In the pinned world a multi-chunk message's last chunk is
    assembled out of the out-of-order buffer, not as the segment that
    just arrived."""
    connection = transport.StreamConnection
    handle_data, assemble = connection._handle_data, connection._assemble
    arriving = []
    drained_last_chunks = []

    def spy_handle_data(self, segment, congestion_marked):
        arriving.append(segment)
        handle_data(self, segment, congestion_marked)

    def spy_assemble(self, segment):
        if (segment.chunk_count > 1
                and segment.chunk_index == segment.chunk_count - 1
                and segment is not arriving[-1]):
            drained_last_chunks.append(segment.message_id)
        assemble(self, segment)

    monkeypatch.setattr(connection, "_handle_data", spy_handle_data)
    monkeypatch.setattr(connection, "_assemble", spy_assemble)
    expected, actual = both(**MIDDLE_CHUNK)
    assert actual == expected
    assert drained_last_chunks
    assert len(actual["delivered"]["s"]) == 2
    assert len(actual["delivered"]["c0"]) == 1
