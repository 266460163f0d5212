"""Topics and the data-plane endpoints (DataWriter / DataReader).

The control plane (who matches whom, who owns a topic) lives in the
:class:`~repro.pubsub.broker.Broker`; this module is the data plane:

* a :class:`DataWriter` fans each sample out once per *matched*
  reader — best-effort matches ride datagrams, matches where both
  sides are RELIABLE ride a per-reader stream connection whose
  retransmission effort is bounded (``RELIABLE_MAX_RTOS`` consecutive
  RTOs, well under the transport's default give-up threshold: a
  pub-sub sample that is a dozen lease periods stale is worthless);
* a :class:`DataReader` owns the receive sockets, the
  :class:`~repro.pubsub.history.HistoryCache`, exactly-once
  accounting per writer, the deadline monitor and the latency-budget
  ledger.

Endpoints also run **local** (``nic=None`` on either side): delivery
becomes a zero-delay kernel event instead of packets.  Unit and
property tests use local mode; the fig12 gauntlet runs the full
packet path.

Ordering note: sample delivery, ownership filtering and dedup all
happen in :meth:`DataReader._receive` regardless of transport, so the
invariant checkers observe one choke point.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Callable, Dict, Optional, Union, TYPE_CHECKING

from repro.net.diffserv import Dscp
from repro.net.packet import HEADER_BYTES
from repro.net.transport import DatagramSocket, StreamConnection, StreamListener
from repro.pubsub.dedup import DedupLedger
from repro.pubsub.filters import ContentFilter
from repro.pubsub.history import HistoryCache
from repro.pubsub.matching import MatchResult
from repro.pubsub.policies import (EXCLUSIVE, Durability, QosPolicy,
                                   Reliability)
from repro.sim.kernel import Kernel, ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import Nic
    from repro.pubsub.broker import Broker

__all__ = ["BROKER_PORT", "Topic", "Sample", "Match", "DataWriter",
           "DataReader"]

#: Well-known discovery/heartbeat port on the broker host (the DDS
#: discovery port).
BROKER_PORT = 7400

#: Nominal wire size of a liveliness heartbeat datagram.
HEARTBEAT_BYTES = 32

#: One published value.  A plain namedtuple: samples travel through
#: transports, reader histories and experiment results, so they must
#: pickle byte-identically at any worker count.
Sample = namedtuple("Sample", ["topic", "writer", "seq", "data", "sent_at"])


class Topic:
    """A named stream of typed samples with a nominal rate."""

    __slots__ = ("name", "sample_bytes", "rate_hz")

    def __init__(self, name: str, sample_bytes: int = 1200,
                 rate_hz: float = 30.0) -> None:
        if sample_bytes <= 0:
            raise ValueError(f"sample_bytes must be positive: {sample_bytes}")
        if rate_hz <= 0:
            raise ValueError(f"rate_hz must be positive: {rate_hz}")
        self.name = name
        self.sample_bytes = int(sample_bytes)
        self.rate_hz = float(rate_hz)

    @property
    def wire_rate_bps(self) -> float:
        """Nominal on-the-wire rate (payload + per-packet header)."""
        return (self.sample_bytes + HEADER_BYTES) * 8.0 * self.rate_hz

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Topic({self.name!r}, {self.sample_bytes}B "
                f"@ {self.rate_hz:g}Hz)")


class Match:
    """One compatible writer→reader pairing (created by the broker)."""

    __slots__ = ("writer", "reader", "result", "reliable", "dscp",
                 "divisor", "reserved", "sent",
                 "filter", "replayed")

    def __init__(self, writer: "DataWriter", reader: "DataReader",
                 result: MatchResult) -> None:
        self.writer = writer
        self.reader = reader
        self.result = result
        #: The reader's content filter, if it declared one — evaluated
        #: writer-side so rejected samples never cross the wire.
        self.filter: Optional[ContentFilter] = reader.filter
        #: Durable samples replayed to this reader at match time.
        self.replayed = 0
        #: Samples this writer pushed toward this reader (per-match
        #: ledger: the reliable exactly-once check compares it to the
        #: reader's per-writer delivery count).
        self.sent = 0
        #: Reliable transport only when *both* sides are RELIABLE; a
        #: RELIABLE writer downgrades to datagrams for a best-effort
        #: reader.
        self.reliable = (
            writer.qos.reliability is Reliability.RELIABLE
            and reader.qos.reliability is Reliability.RELIABLE)
        self.dscp = Dscp.BE
        #: Send every Nth sample (deadline-adaptive readers raise this
        #: to shed load: 1 → full rate, 3 → ~10fps, 15 → ~2fps at 30).
        self.divisor = 1
        #: True when this match holds an admission-controller grant.
        self.reserved = False

    def __repr__(self) -> str:  # pragma: no cover
        kind = "reliable" if self.reliable else "best-effort"
        return (f"<Match {self.writer.name}->{self.reader.name} {kind} "
                f"div={self.divisor}{' reserved' if self.reserved else ''}>")


class DataWriter:
    """Publishes samples on one topic under a declared (offered) QoS."""

    #: Bounded retransmit for RELIABLE matches: consecutive RTOs before
    #: the per-reader stream gives up (it reconnects lazily on the next
    #: write, so a restored path resumes delivery).
    RELIABLE_MAX_RTOS = 6
    #: Per-reader stream window cap: a 30 msg/s feed needs a handful of
    #: in-flight segments, and the small cap keeps synchronized slow-
    #: start overshoot from many writers well inside the EF band.
    RELIABLE_WINDOW = 8

    def __init__(
        self,
        kernel: Kernel,
        topic: Topic,
        qos: QosPolicy,
        name: str,
        nic: Optional["Nic"] = None,
    ) -> None:
        self.kernel = kernel
        self.topic = topic
        self.qos = qos
        self.name = name
        self.nic = nic
        #: The host this writer publishes from (its own name when local).
        self.host_name = nic.host.name if nic is not None else name
        self.broker: Optional["Broker"] = None
        self.matches: Dict[str, Match] = {}
        #: The last seq published: also the number of samples written.
        self.seq = 0
        self.samples_sent = 0
        #: Sends skipped by a reader's rate divisor (adaptation ledger).
        self.sends_suppressed = 0
        #: Sends skipped by a reader's content filter.
        self.sends_filtered = 0
        self.heartbeats_sent = 0
        #: TRANSIENT_LOCAL: everything published, bounded by the
        #: offered history policy, replayed to late-joining readers.
        self.durable_cache: Optional[HistoryCache] = None
        if qos.durability is Durability.TRANSIENT_LOCAL:
            self.durable_cache = HistoryCache(qos.history, qos.depth)
        self._udp: Optional[DatagramSocket] = None
        if nic is not None:
            self._udp = DatagramSocket(kernel, nic)
        self._conns: Dict[str, StreamConnection] = {}
        self._hb_event: Optional[ScheduledEvent] = None

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def write(self, data: Any = None) -> Sample:
        """Publish one sample to every matched reader."""
        seq = self.seq + 1
        self.seq = seq
        sample = Sample(self.topic.name, self.name, seq, data,
                        self.kernel.now)
        if self.durable_cache is not None:
            self.durable_cache.add(sample)
        for match in self.matches.values():
            # Filter before divisor: a filtered sample consumes neither
            # wire bytes nor the match's EF reserve, and the divisor
            # paces the published seq stream regardless of filtering.
            if match.filter is not None and not match.filter.matches(sample):
                self.sends_filtered += 1
                continue
            if match.divisor > 1 and seq % match.divisor != 0:
                self.sends_suppressed += 1
                continue
            self._send(match, sample)
        return sample

    def replay(self, match: Match) -> int:
        """Replay the durable cache to one (newly matched) reader.

        Returns the number of samples sent.  Replay respects the
        match's content filter but not its divisor — catch-up delivers
        the whole in-cache history, and divisors only ever rise after
        a deadline-adaptive reader has observed live traffic.
        """
        if self.durable_cache is None:
            return 0
        replayed = 0
        for sample in self.durable_cache.snapshot():
            if match.filter is not None and not match.filter.matches(sample):
                self.sends_filtered += 1
                continue
            self._send(match, sample)
            replayed += 1
        match.replayed += replayed
        return replayed

    def _send(self, match: Match, sample: Sample) -> None:
        reader = match.reader
        self.samples_sent += 1
        match.sent += 1
        if self.nic is None or reader.nic is None:
            # Local mode: a zero-delay event keeps delivery ordered
            # with everything else queued at this instant.  Delivery
            # takes no time, so the latency at receipt is the age now
            # (a replayed sample's is how long it waited in the cache).
            self.kernel.schedule(0.0, reader._receive, sample,
                                 self.kernel.now - sample.sent_at)
            return
        if match.reliable:
            conn = self._conns.get(reader.name)
            if conn is None or conn.closed:
                conn = StreamConnection.connect(
                    self.kernel, self.nic, reader.host_name,
                    reader.stream_port, dscp=match.dscp,
                    max_rtos=self.RELIABLE_MAX_RTOS,
                    window=self.RELIABLE_WINDOW)
                self._conns[reader.name] = conn
            conn.send_message(sample, payload_bytes=self.topic.sample_bytes)
        else:
            # A datagram refused at the first hop (local link down) is
            # lost like one dropped on the way.
            self._udp.send_to(reader.host_name, reader.datagram_port,
                              sample, self.topic.sample_bytes, match.dscp)

    # ------------------------------------------------------------------
    # Liveliness heartbeats (driven while a lease is offered)
    # ------------------------------------------------------------------
    def start_heartbeats(self) -> None:
        """Begin periodic liveliness assertions (broker calls this).

        The first beat is scheduled rather than sent inline so that
        registration (usually before ``kernel.run``) emits no packets:
        monitors installed between setup and run observe every
        heartbeat's full life cycle.
        """
        if self.qos.lease is None or self._hb_event is not None:
            return
        self._hb_event = self.kernel.schedule(0.0, self._do_heartbeat)

    def _do_heartbeat(self) -> None:
        # The first beat's handle carries on as the periodic one.
        self._hb_event.callback = self._send_heartbeat
        self._send_heartbeat()

    def stop_heartbeats(self) -> None:
        if self._hb_event is not None:
            self._hb_event.cancel()
            self._hb_event = None

    def _send_heartbeat(self) -> None:
        broker = self.broker
        if broker is None:
            self._hb_event = None
            return
        event = self._hb_event  # the handle firing now
        self.heartbeats_sent += 1
        # Heartbeats carry the writer's current seq so the broker can
        # fan dedup-window trims out to matched readers.
        if self.nic is None or broker.nic is None:
            broker.heartbeat(self.name, self.seq)
        else:
            # Dropped at the first hop while this host's link is down —
            # exactly the silence the lease monitor is listening for.
            self._udp.send_to(broker.host_name, BROKER_PORT,
                              payload=("hb", self.name, self.seq),
                              payload_bytes=HEARTBEAT_BYTES)
        if self._hb_event is event:
            self.kernel.rearm(event, self.qos.lease / 3.0)
        # Otherwise stop_heartbeats() ran inside this beat (and
        # start_heartbeats() may have armed a fresh handle): this chain
        # ends here.

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<DataWriter {self.name} topic={self.topic.name} "
                f"matches={len(self.matches)} seq={self.seq}>")


class DataReader:
    """Subscribes to one topic under a declared (requested) QoS."""

    def __init__(
        self,
        kernel: Kernel,
        topic: Topic,
        qos: QosPolicy,
        name: str,
        nic: Optional["Nic"] = None,
        on_sample: Optional[Callable[[Sample, float], None]] = None,
        on_deadline_check: Optional[
            Callable[["DataReader", bool], None]] = None,
        filter_expr: Optional[Union[str, ContentFilter]] = None,
    ) -> None:
        self.kernel = kernel
        self.topic = topic
        self.qos = qos
        self.name = name
        self.nic = nic
        #: The host this reader listens on (its own name when local).
        self.host_name = nic.host.name if nic is not None else name
        self.broker: Optional["Broker"] = None
        self.on_sample = on_sample
        #: Content filter (installed writer-side on every match).
        self.filter: Optional[ContentFilter] = (
            ContentFilter(filter_expr) if isinstance(filter_expr, str)
            else filter_expr)
        #: Called every deadline period with (reader, missed) — the
        #: deadline-adaptive qosket hangs its contract off this.
        self.on_deadline_check = on_deadline_check
        self.history = HistoryCache(qos.history, qos.depth)
        self.matched: Dict[str, Match] = {}
        #: Whether only the owner's samples are delivered (a QosPolicy
        #: is immutable, so this is resolved once).
        self._exclusive = qos.ownership is EXCLUSIVE
        #: Current EXCLUSIVE owner (broker-pushed); None = no owner yet.
        self.owner: Optional[str] = None
        # --- delivery ledgers ---
        self.samples_received = 0
        self.delivered = 0
        self.duplicates = 0
        self.from_unmatched = 0
        self.ownership_filtered = 0
        #: Samples dropped locally while a divisor request is in
        #: flight (the reader paces itself ahead of the grant).
        self.downsampled = 0
        #: Samples below a writer's dedup trim floor (ambiguous:
        #: dropped rather than risk a duplicate delivery).
        self.stale_drops = 0
        self.budget_violations = 0
        self.deadline_misses = 0
        self.miss_streak = 0
        self.latency_sum = 0.0
        self.latency_max = 0.0
        self.last_arrival: Optional[float] = None
        #: Largest inter-arrival gap between accepted samples — the
        #: fig12 failover-gap evidence.
        self.max_gap = 0.0
        self._seen: Dict[str, DedupLedger] = {}
        #: The divisor this reader is currently pacing itself to.  Set
        #: immediately on request (before the broker grants) so the
        #: deadline monitor and local downsampling never flap during
        #: the request/grant gap.
        self.pace_divisor = 1
        self._deadline_event: Optional[ScheduledEvent] = None
        # --- receive endpoints ---
        self.datagram_port = 0
        self.stream_port = 0
        self._udp: Optional[DatagramSocket] = None
        self._listener: Optional[StreamListener] = None
        if nic is not None:
            self.datagram_port = nic.allocate_port()
            self._udp = DatagramSocket(kernel, nic, port=self.datagram_port,
                                       on_receive=self._on_datagram)
            if qos.reliability is Reliability.RELIABLE:
                self.stream_port = nic.allocate_port()
                self._listener = StreamListener(
                    kernel, nic, self.stream_port,
                    on_message=self._on_stream)

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.delivered if self.delivered else 0.0

    # ------------------------------------------------------------------
    # Receive path (every transport funnels through _receive)
    # ------------------------------------------------------------------
    def _on_datagram(self, payload: Any, packet: Any) -> None:
        self._receive(payload, self.kernel.now - payload.sent_at)

    def _on_stream(self, payload: Any, meta: Any) -> None:
        self._receive(payload, self.kernel.now - payload.sent_at)

    def _receive(self, sample: Sample, latency: float) -> None:
        self.samples_received += 1
        writer = sample.writer
        match = self.matched.get(writer)
        if match is None:
            self.from_unmatched += 1
            tracer = self.kernel.tracer
            if tracer is not None:
                tracer.instant("pubsub", "sample.unmatched",
                               fields={"reader": self.name,
                                       "writer": writer,
                                       "topic": sample.topic})
            return
        if self._exclusive and writer != self.owner:
            self.ownership_filtered += 1
            return
        seq = sample.seq
        if self.pace_divisor > 1 and seq % self.pace_divisor != 0:
            # The writer has not caught up with our requested divisor
            # yet — enforce it locally so the paced cadence starts the
            # instant the reader decided to shed load.
            self.downsampled += 1
            return
        ledger = self._seen.get(writer)
        if ledger is None:
            ledger = self._seen[writer] = DedupLedger()
        verdict = ledger.observe(seq)
        if verdict != "new":
            if verdict == "duplicate":
                self.duplicates += 1
            else:
                self.stale_drops += 1
            return
        now = self.kernel.now
        if self.last_arrival is not None:
            gap = now - self.last_arrival
            if gap > self.max_gap:
                self.max_gap = gap
        self.last_arrival = now
        budget = match.result.effective_budget
        if budget > 0.0 and latency > budget:
            self.budget_violations += 1
        self.history.add((writer, seq, round(latency, 9)))
        self.delivered += 1
        self.latency_sum += latency
        if latency > self.latency_max:
            self.latency_max = latency
        if self.on_sample is not None:
            self.on_sample(sample, latency)

    # ------------------------------------------------------------------
    # Deadline monitoring (started by the broker at first match)
    # ------------------------------------------------------------------
    def start_deadline_monitor(self) -> None:
        if self.qos.deadline is None or self._deadline_event is not None:
            return
        self.last_arrival = None
        self._anchor = self.kernel.now
        self._deadline_event = self.kernel.schedule(
            self.qos.deadline, self._deadline_check)

    def stop_deadline_monitor(self) -> None:
        if self._deadline_event is not None:
            self._deadline_event.cancel()
            self._deadline_event = None

    def _deadline_check(self) -> None:
        event = self._deadline_event  # the handle firing now
        period = self.qos.deadline
        since = (self.kernel.now - self.last_arrival
                 if self.last_arrival is not None
                 else self.kernel.now - self._anchor)
        # A reader pacing itself to every Nth sample expects arrivals
        # at the paced period, not the declared deadline — judging
        # against the raw deadline is what used to blow the monitor
        # during a divisor request/grant gap.  The monitor cadence
        # itself stays at the declared deadline.
        expected = period
        if self.pace_divisor > 1:
            expected = max(expected, self.pace_divisor / self.topic.rate_hz)
        # Strictly-greater with a float guard: a sample landing exactly
        # on the deadline edge made it.
        missed = since > expected * (1.0 + 1e-9)
        if missed:
            self.deadline_misses += 1
            self.miss_streak += 1
            tracer = self.kernel.tracer
            if tracer is not None:
                tracer.instant("pubsub", "deadline.miss",
                               fields={"reader": self.name,
                                       "topic": self.topic.name,
                                       "streak": self.miss_streak})
        else:
            self.miss_streak = 0
        if self.on_deadline_check is not None:
            self.on_deadline_check(self, missed)
        if self._deadline_event is event:
            self.kernel.rearm(event, period)
        # Otherwise the callback stopped the monitor (and may have
        # started a fresh one): this chain ends here.

    # ------------------------------------------------------------------
    # Adaptation
    # ------------------------------------------------------------------
    def request_divisor(self, divisor: int) -> None:
        """Ask matched writers to send every Nth sample to this reader.

        The reader adopts the divisor locally *immediately* (pacing its
        deadline expectation and downsampling in-flight traffic); the
        broker's grant then reconciles the writers.
        """
        self.pace_divisor = max(1, int(divisor))
        if self.broker is not None:
            self.broker.set_divisor(self, divisor)

    def trim_dedup(self, writer_name: str, floor: int) -> None:
        """Forget dedup state for one writer's seqs ``<= floor``."""
        ledger = self._seen.get(writer_name)
        if ledger is not None:
            ledger.trim(floor)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<DataReader {self.name} topic={self.topic.name} "
                f"delivered={self.delivered} misses={self.deadline_misses}>")
