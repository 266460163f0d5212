"""Discovery/matching broker with liveliness and ownership arbitration.

The broker is the control plane of :mod:`repro.pubsub`:

* **discovery/matching** — every registered writer is checked against
  every registered reader on the same topic with the pure
  :func:`~repro.pubsub.matching.rxo_check`; compatible pairs get a
  :class:`~repro.pubsub.core.Match` installed on both endpoints.
  Control-plane actions are direct calls (like the admission
  controller), only the *data* plane rides packets.
* **liveliness** — one
  :class:`~repro.pubsub.liveliness.LivelinessMonitor` per leased
  writer, fed by heartbeat datagrams to the broker host's well-known
  port (:data:`~repro.pubsub.core.BROKER_PORT`).  A node crash fails
  the writer host's links, its heartbeats stop arriving, and one
  lease later the monitor declares the writer dead.
* **ownership** — per topic, EXCLUSIVE readers accept only the
  strongest *live* writer; ties break to the lexicographically
  smallest writer name so failover is deterministic.  Owner changes
  are pushed to readers (out-of-band discovery, the usual DDS
  simplification) and traced as ``pubsub ownership.failover``.
* **admission** — a RELIABLE match whose writer offers KEEP_ALL
  history claims reserve budget from the admission controller
  (topic wire rate, writer host → reader host).  Granted matches are
  promoted to EF; denied ones still form but stay best-effort-class
  on the wire.
* **durability** — a TRANSIENT_LOCAL reader that matches a durable
  writer gets the writer's cached history replayed at match time
  (late-joiner catch-up), traced as ``pubsub durability.replay``.
* **partitions** — given a ``network``, the broker watches link state
  and arbitrates EXCLUSIVE ownership *per reachability partition*:
  readers cut off from the broker elect the strongest writer whose
  host is reachable inside their own partition (instead of freezing
  on the broker's last word), and everything re-arbitrates
  deterministically when the partition heals.  Within the broker's
  own partition arbitration stays purely lease-driven.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.diffserv import Dscp
from repro.net.transport import DatagramSocket
from repro.pubsub.core import BROKER_PORT, DataReader, DataWriter, Match
from repro.pubsub.dedup import DEDUP_WINDOW
from repro.pubsub.liveliness import LivelinessMonitor
from repro.pubsub.matching import rxo_check
from repro.pubsub.policies import Durability, HistoryKind, OwnershipKind
from repro.sim.kernel import Kernel

__all__ = ["Broker", "RESERVE_HEADROOM", "DIVISOR_GRANT_DELAY"]

#: Control-plane latency between a reader's divisor request and the
#: broker's grant reaching the writers (networked mode only; local
#: endpoints grant inline so unit tests stay synchronous).  The reader
#: paces itself immediately — this delay is exactly the gap the
#: reader-side downsampling bugfix covers.
DIVISOR_GRANT_DELAY = 0.05

#: Reserved matches book this multiple of the topic's nominal wire
#: rate — slack for retransmissions and congestion-window bursts, the
#: same reserve-above-nominal idiom the fig 9 RSVP reservations use.
#: 1.5x leaves the phase-late reader of each topic with a queueing
#: RTT right at the retransmit timeout (spurious RTOs, cwnd collapse,
#: unbounded backlog); 2x keeps the reserved band short enough that
#: every reliable reader drains at the offered rate.
RESERVE_HEADROOM = 2.0


class Broker:
    """Topic discovery, RxO matching, liveliness and ownership."""

    def __init__(
        self,
        kernel: Kernel,
        nic: Optional[Any] = None,
        admission: Optional[Any] = None,
        network: Optional[Any] = None,
    ) -> None:
        self.kernel = kernel
        self.nic = nic
        self.host_name = nic.host.name if nic is not None else "broker"
        self.admission = admission
        #: With a Network the broker watches link state and runs
        #: per-partition ownership arbitration.  Links must exist
        #: before the broker is constructed (fig12 builds the topology
        #: first); links added later are not watched.
        self.network = network
        self.writers: Dict[str, DataWriter] = {}
        self.readers: Dict[str, DataReader] = {}
        self.monitors: Dict[str, LivelinessMonitor] = {}
        #: topic name -> current EXCLUSIVE owner *in the broker's own
        #: partition* (None = no live owner).
        self.owners: Dict[str, Optional[str]] = {}
        #: (topic, partition id) -> elected owner for readers in that
        #: partition.  Superset of :attr:`owners` (the broker's own
        #: partition appears here too).
        self.partition_owners: Dict[Tuple[str, Optional[str]],
                                    Optional[str]] = {}
        self.matches_formed = 0
        self.matches_rejected = 0
        self.ownership_changes = 0
        #: Owner changes decided for partitions *other than* the
        #: broker's own (the partition-stall fix firing).
        self.partition_elections = 0
        self.grants = 0
        self.grant_denials = 0
        self.divisor_grants = 0
        self.replays = 0
        self._rearb_pending = False
        self._udp: Optional[DatagramSocket] = None
        if nic is not None:
            self._udp = DatagramSocket(kernel, nic, port=BROKER_PORT,
                                       on_receive=self._on_datagram)
        if network is not None:
            for link in network.links:
                link.add_listener(self._on_link_state)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_writer(self, writer: DataWriter) -> None:
        if writer.name in self.writers:
            raise ValueError(f"duplicate writer name: {writer.name}")
        writer.broker = self
        self.writers[writer.name] = writer
        if writer.qos.lease is not None:
            self.monitors[writer.name] = LivelinessMonitor(
                self.kernel, writer.name, writer.qos.lease,
                on_lost=self._on_liveliness_change,
                on_revived=self._on_liveliness_change)
            writer.start_heartbeats()
        for reader in self.readers.values():
            self._try_match(writer, reader)
        if writer.qos.ownership is OwnershipKind.EXCLUSIVE:
            self._recompute_owner(writer.topic.name)

    def register_reader(self, reader: DataReader) -> None:
        if reader.name in self.readers:
            raise ValueError(f"duplicate reader name: {reader.name}")
        reader.broker = self
        self.readers[reader.name] = reader
        for writer in self.writers.values():
            self._try_match(writer, reader)
        if reader.qos.ownership is OwnershipKind.EXCLUSIVE:
            parts = self.partitions()
            pid = (parts.get(reader.host_name)
                   if parts is not None else None)
            key = (reader.topic.name, pid)
            if key in self.partition_owners:
                reader.owner = self.partition_owners[key]
            else:
                reader.owner = self.owners.get(reader.topic.name)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _try_match(self, writer: DataWriter, reader: DataReader) -> None:
        if writer.topic.name != reader.topic.name:
            return
        result = rxo_check(writer.qos, reader.qos)
        tracer = self.kernel.tracer
        if not result.compatible:
            self.matches_rejected += 1
            if tracer is not None:
                tracer.instant("pubsub", "match.rejected",
                               fields={"writer": writer.name,
                                       "reader": reader.name,
                                       "topic": writer.topic.name,
                                       "failed": ",".join(result.failed)})
            return
        match = Match(writer, reader, result)
        self._maybe_reserve(match)
        writer.matches[reader.name] = match
        reader.matched[writer.name] = match
        self.matches_formed += 1
        if tracer is not None:
            tracer.instant("pubsub", "match",
                           fields={"writer": writer.name,
                                   "reader": reader.name,
                                   "topic": writer.topic.name,
                                   "reliable": match.reliable,
                                   "reserved": match.reserved})
        reader.start_deadline_monitor()
        if (reader.qos.durability is Durability.TRANSIENT_LOCAL
                and writer.durable_cache is not None
                and len(writer.durable_cache) > 0):
            replayed = writer.replay(match)
            self.replays += replayed
            if tracer is not None and replayed:
                tracer.instant("pubsub", "durability.replay",
                               fields={"writer": writer.name,
                                       "reader": reader.name,
                                       "topic": writer.topic.name,
                                       "samples": replayed})

    def _maybe_reserve(self, match: Match) -> None:
        """Reliable KEEP_ALL endpoints claim reserve budget up front."""
        writer, reader = match.writer, match.reader
        if (self.admission is None or not match.reliable
                or writer.qos.history is not HistoryKind.KEEP_ALL
                or writer.nic is None or reader.nic is None):
            return
        decision = self.admission.request(
            f"pubsub:{writer.name}->{reader.name}",
            src=writer.host_name, dst=reader.host_name,
            rate_bps=RESERVE_HEADROOM * writer.topic.wire_rate_bps)
        if decision.admitted:
            match.reserved = True
            match.dscp = Dscp.EF
            self.grants += 1
        else:
            self.grant_denials += 1

    # ------------------------------------------------------------------
    # Liveliness
    # ------------------------------------------------------------------
    def heartbeat(self, writer_name: str, seq: Optional[int] = None) -> None:
        monitor = self.monitors.get(writer_name)
        if monitor is not None:
            monitor.heartbeat()
        # The writer's seq rides its heartbeats; fan the dedup-window
        # trim out to every matched reader so per-writer ledgers stay
        # O(window) over arbitrarily long runs.
        if seq is not None and seq > DEDUP_WINDOW:
            writer = self.writers.get(writer_name)
            if writer is not None:
                floor = seq - DEDUP_WINDOW
                for match in writer.matches.values():
                    match.reader.trim_dedup(writer_name, floor)

    def writer_alive(self, writer_name: str) -> bool:
        monitor = self.monitors.get(writer_name)
        return monitor.alive if monitor is not None else True

    def _on_datagram(self, payload: Any, packet: Any) -> None:
        kind = payload[0]
        if kind == "hb":
            _, name, seq = payload
            self.heartbeat(name, seq)

    def _on_liveliness_change(self, monitor: LivelinessMonitor) -> None:
        writer = self.writers.get(monitor.name)
        if writer is not None and (
                writer.qos.ownership is OwnershipKind.EXCLUSIVE):
            self._recompute_owner(writer.topic.name)

    # ------------------------------------------------------------------
    # Reachability partitions
    # ------------------------------------------------------------------
    def partitions(self) -> Optional[Dict[str, str]]:
        """Device name -> partition id (min member name), or None.

        Union-find over *up* links: two devices share a partition id
        iff a path of live links connects them.  ``None`` when the
        broker has no network view (local mode), which keeps every
        arbitration decision purely lease-driven.
        """
        if self.network is None:
            return None
        parent: Dict[str, str] = {
            name: name for name in self.network._adjacency}

        def find(name: str) -> str:
            root = name
            while parent[root] != root:
                root = parent[root]
            while parent[name] != root:
                parent[name], name = root, parent[name]
            return root

        for link in self.network.links:
            if link.up:
                ra, rb = find(link.a.owner.name), find(link.b.owner.name)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        members: Dict[str, List[str]] = {}
        for name in parent:
            members.setdefault(find(name), []).append(name)
        out: Dict[str, str] = {}
        for names in members.values():
            pid = min(names)
            for name in names:
                out[name] = pid
        return out

    def _host_up(self, writer: DataWriter) -> bool:
        """Does the writer's host still have any live link (carrier)?"""
        if writer.nic is None:
            return True
        return any(iface.link is not None and iface.link.up
                   for iface in writer.nic.interfaces)

    def _on_link_state(self, link: Any, up: bool) -> None:
        # Coalesce bursts (a node crash fails several links at the
        # same instant) into one zero-delay re-arbitration pass.
        if self._rearb_pending:
            return
        self._rearb_pending = True
        self.kernel.schedule(0.0, self._rearbitrate_all)

    def _rearbitrate_all(self) -> None:
        self._rearb_pending = False
        topics = sorted({
            w.topic.name for w in self.writers.values()
            if w.qos.ownership is OwnershipKind.EXCLUSIVE})
        for topic_name in topics:
            self._recompute_owner(topic_name)

    # ------------------------------------------------------------------
    # Ownership arbitration
    # ------------------------------------------------------------------
    def _arbitrate(self, candidates: List[DataWriter],
                   parts: Optional[Dict[str, str]],
                   pid: Optional[str]) -> Optional[str]:
        """Strongest viable EXCLUSIVE writer for partition ``pid``."""
        home = (parts.get(self.host_name)
                if parts is not None else None)
        viable = []
        for writer in candidates:
            if parts is None or pid == home:
                # The broker shares this partition: its lease monitors
                # are authoritative (a dead writer is evicted one
                # lease after its last heartbeat, never sooner).
                ok = self.writer_alive(writer.name)
            else:
                # The broker is unreachable from this partition: its
                # members fall back to local discovery — the strongest
                # writer whose host sits inside the partition and
                # still has carrier.
                ok = (parts.get(writer.host_name) == pid
                      and self._host_up(writer))
            if ok:
                viable.append(writer)
        if not viable:
            return None
        # Strongest wins; ties break to the smallest name so failover
        # is deterministic at any worker count.
        return min(viable, key=lambda w: (-w.qos.strength, w.name)).name

    def _recompute_owner(self, topic_name: str) -> None:
        candidates = [
            w for w in self.writers.values()
            if w.topic.name == topic_name
            and w.qos.ownership is OwnershipKind.EXCLUSIVE
        ]
        parts = self.partitions()
        home = parts.get(self.host_name) if parts is not None else None
        # Partitions currently holding EXCLUSIVE readers of this topic
        # (the broker's own partition always arbitrates, so the legacy
        # self.owners view stays live even with no readers).
        pids = {home}
        for reader in self.readers.values():
            if (reader.topic.name == topic_name
                    and reader.qos.ownership is OwnershipKind.EXCLUSIVE):
                pids.add(parts.get(reader.host_name)
                         if parts is not None else None)
        for pid in sorted(pids, key=lambda p: p or ""):
            new_owner = self._arbitrate(candidates, parts, pid)
            old_owner = self.partition_owners.get(
                (topic_name, pid), self.owners.get(topic_name))
            if pid == home:
                self.owners[topic_name] = new_owner
            self.partition_owners[(topic_name, pid)] = new_owner
            # Every reader follows its partition's owner, changed or
            # not: one whose partition rejoined the broker's still holds
            # the owner it was cut off with.
            for reader in self.readers.values():
                if (reader.topic.name == topic_name
                        and reader.qos.ownership is OwnershipKind.EXCLUSIVE
                        and (parts.get(reader.host_name)
                             if parts is not None else None) == pid):
                    reader.owner = new_owner
            if new_owner == old_owner:
                continue
            if pid == home:
                self.ownership_changes += 1
            else:
                self.partition_elections += 1
            tracer = self.kernel.tracer
            if tracer is not None:
                tracer.instant("pubsub", "ownership.failover",
                               fields={"topic": topic_name, "old": old_owner,
                                       "new": new_owner, "partition": pid})

    # ------------------------------------------------------------------
    # Adaptation plumbing
    # ------------------------------------------------------------------
    def set_divisor(self, reader: DataReader, divisor: int) -> None:
        """Grant a reader's divisor request to its matched writers.

        Local-mode endpoints grant inline; networked requests take one
        control-plane round trip (:data:`DIVISOR_GRANT_DELAY`), during
        which the reader paces itself locally.
        """
        divisor = max(1, int(divisor))
        if self.nic is None or reader.nic is None:
            self._grant_divisor(reader, divisor)
        else:
            self.kernel.schedule(DIVISOR_GRANT_DELAY,
                                 self._grant_divisor, reader, divisor)

    def _grant_divisor(self, reader: DataReader, divisor: int) -> None:
        self.divisor_grants += 1
        for match in reader.matched.values():
            match.divisor = divisor

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Quiesce timers so a bounded run winds down cleanly."""
        for monitor in self.monitors.values():
            monitor.stop()
        for writer in self.writers.values():
            writer.stop_heartbeats()
        for reader in self.readers.values():
            reader.stop_deadline_monitor()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Broker writers={len(self.writers)} "
                f"readers={len(self.readers)} "
                f"matches={self.matches_formed}>")
