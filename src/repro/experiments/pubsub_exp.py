"""Fig 12: the pub-sub fan-out gauntlet.

Figs 9-11 stress point-to-point streams; fig 12 asks how *declarative*
per-endpoint QoS behaves when K publishers fan M topics out to
thousands of subscribers through one bottleneck.  The population is
split like fig 10: a measured cohort of packet-simulated
:class:`~repro.pubsub.core.DataReader` endpoints (two per topic, on
the subscriber host) keeps real transports, real deadline monitors and
real ownership arbitration in the loop, while the remaining
subscribers become per-topic :class:`~repro.fluid.engine.FluidFlow`
aggregates whose byte/loss ledgers give the population tail.

Arms (each a different QoS declaration, same topology):

``best-effort``
    BEST_EFFORT / KEEP_LAST(8).  A mid-run loss burst on the
    bottleneck plus the fan-out overload: samples are simply gone, and
    past the bottleneck's capacity the measured readers collapse.
``reliable``
    RELIABLE / KEEP_ALL endpoints: matches claim reserve budget from
    the admission controller (EF on the wire) and ride the stream
    transport's bounded-retransmit machinery.  The same loss burst is
    repaired by retransmission — every measured reader ends the run
    having seen every sample exactly once.
``adaptive``
    BEST_EFFORT plus a per-reader QuO pacing contract: sustained
    deadline misses step the reader's requested rate down a
    30 -> 10 -> 2 fps ladder (send divisors 1/3/15 applied at the
    *writer*, so shed samples never cross the wire); sustained on-time
    delivery steps back up.  Under overload the readers hold the
    contracted floor instead of collapsing.
``ownership``
    EXCLUSIVE ownership, two writers per topic (primary strength 10,
    backup strength 5, lease 0.6 s).  A node crash kills the strongest
    publisher host mid-run: heartbeats stop at the first hop, the
    lease expires, and the broker fails every affected topic over to
    its backup — measured by the largest delivery gap any reader saw.
``durable``
    RELIABLE endpoints that also declare TRANSIENT_LOCAL durability.
    A late-joiner wave (one extra reader per topic) registers mid-run
    and must receive the writer's entire in-cache history, replayed
    through the same reliable reserved path, duplicate-free — then
    ride live traffic seamlessly.
``filtered``
    RELIABLE endpoints where each reader declares a content filter
    (``seq % 2 == j``): the writer evaluates the filter before send,
    so rejected samples never cross the wire or consume reserve, and
    the *filtered* stream is still delivered exactly once.
``partition``
    The ownership topology plus a broker partition: the broker's
    uplink flaps mid-run while the strongest publisher host also
    crashes.  Readers cut off from the broker elect the strongest
    reachable writer inside their own partition (instead of freezing
    on the broker's last word) and re-arbitrate on heal.

The sweep scales total subscribers past the bottleneck's capacity, so
the arms separate exactly where fan-out outgrows provisioning.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.net.packet import HEADER_BYTES
from repro.core.adaptation import ADAPT_LADDER, PacingQosket
from repro.core.policies import QosPolicy as CorePolicy
from repro.experiments.arm import Arm, ArmResult, Claim, sweep_lookup
from repro.experiments.reporting import render_table
from repro.experiments.testbed import Testbed
from repro.fluid.engine import FluidEngine
from repro.scale.admission import AdmissionController
from repro.pubsub.broker import Broker, RESERVE_HEADROOM
from repro.pubsub.core import DataReader, DataWriter, Topic
from repro.pubsub.policies import (
    Durability,
    HistoryKind,
    OwnershipKind,
    QosPolicy,
    Reliability,
)

__all__ = [
    "PubSubArm", "pubsub_arms", "fig12_subscriber_counts", "ReaderRow",
    "PubSubResult", "run_pubsub_experiment", "render_fig12_pubsub",
    "expected_matches",
]

#: One sample's payload (single datagram, no fragmentation) and rate.
SAMPLE_BYTES = 1200
TOPIC_RATE_HZ = 30.0
#: On-wire rate of one writer->subscriber feed (payload + header).
WIRE_RATE_BPS = (SAMPLE_BYTES + HEADER_BYTES) * 8.0 * TOPIC_RATE_HZ

PUBLISHERS = 4
TOPICS = 8
MEASURED_PER_TOPIC = 2

ACCESS_BPS = 1e9
#: The fan-out bottleneck (router -> subscriber host).  The subscriber
#: sweep deliberately crosses this capacity.
FANOUT_BOTTLENECK_BPS = 60e6
UTILIZATION_BOUND = 0.9
BAND_CAPACITY = 200

#: Liveliness lease offered by every writer; heartbeats every lease/3.
LEASE = 0.6
#: Writers promise a sample every frame; readers tolerate three.
WRITER_DEADLINE = 1.0 / TOPIC_RATE_HZ
READER_DEADLINE = 3.0 / TOPIC_RATE_HZ
#: Latency budgets, additive along the match (0.02 + 0.03 = 0.05 s).
OFFERED_BUDGET = 0.02
REQUESTED_BUDGET = 0.03
#: KEEP_ALL resource bound: generous enough for a full run's samples.
KEEP_ALL_DEPTH = 4096
#: Publishers stop this long before the horizon so reliable
#: retransmissions drain and "delivered == sent" is exact.
DRAIN_GRACE = 0.5

OWNER_PRIMARY_STRENGTH = 10
OWNER_BACKUP_STRENGTH = 5

#: When the durable arm's late-joiner wave registers (fraction of the
#: run).  Early enough that replay + remaining live traffic drains
#: through the reserved band before the horizon, late enough that the
#: in-cache history is a real catch-up burst.
LATE_JOIN_FRACTION = 0.45
#: Late joiners per topic in the durable arm.
LATE_PER_TOPIC = 1


@dataclass
class PubSubArm(Arm):
    """One fig 12 arm: which QoS declaration the endpoints make."""

    name: str
    reliable: bool = False
    adaptive: bool = False
    ownership: bool = False
    faults: bool = False
    durable: bool = False
    filtered: bool = False
    partition: bool = False

    def policy(self) -> CorePolicy:
        """No endpoint asks the manager for anything: fig 12's QoS is
        declared in the pub-sub vocabulary (:func:`_arm_policies`), and
        the broker books reserved matches with its own controller."""
        return CorePolicy()


def pubsub_arms() -> List[PubSubArm]:
    return [
        PubSubArm("best-effort", faults=True),
        PubSubArm("reliable", reliable=True, faults=True),
        PubSubArm("adaptive", adaptive=True),
        PubSubArm("ownership", ownership=True, faults=True),
        PubSubArm("durable", reliable=True, durable=True),
        PubSubArm("filtered", reliable=True, filtered=True),
        PubSubArm("partition", ownership=True, partition=True, faults=True),
    ]


def expected_matches(arm: PubSubArm) -> int:
    """Matches the broker must form for one run of ``arm``.

    Every measured reader matches every writer on its topic (two for
    the ownership arms); the durable arm's late-joiner wave adds one
    more reader per topic.
    """
    per_reader = 2 if arm.ownership else 1
    reader_count = TOPICS * MEASURED_PER_TOPIC
    if arm.durable:
        reader_count += TOPICS * LATE_PER_TOPIC
    return reader_count * per_reader


def fig12_subscriber_counts() -> List[int]:
    """Total subscribers swept across the bottleneck's capacity.

    128 fits at full rate; 1024 is ~5x oversubscribed (only the 2 fps
    pacing floor fits); 2048 is ~10x oversubscribed, the largest
    population whose contracted floor still fits the bottleneck — past
    it no declaration can hold the floor, so the sweep stops where the
    adaptive arm's promise is still physically meaningful.
    """
    return [128, 1024, 2048]


#: One measured reader's ledgers; plain data for stable payloads.
ReaderRow = namedtuple("ReaderRow", [
    "name",
    "topic",
    "writers",            # matched writer count
    "sent_to",            # samples writers pushed toward this reader
    "delivered",          # accepted exactly-once deliveries
    "duplicates",
    "filtered",           # dropped by EXCLUSIVE ownership arbitration
    "unmatched",          # arrived without an active match (must be 0)
    "deadline_misses",
    "budget_violations",
    "history_rejected",   # KEEP_ALL resource-bound refusals
    "fps",                # delivered / publish window
    "mean_latency",
    "max_gap",            # largest inter-arrival gap (failover probe)
    "divisor",            # final pacing divisor (1 unless adaptive)
    "replayed",           # durable samples replayed at match time
    "downsampled",        # dropped locally while pacing ahead of grant
    "stale",              # dropped below a writer's dedup trim floor
    "joined_at",          # registration time (0.0 for the initial cohort)
])


class PubSubResult(ArmResult):
    """One (arm, subscribers) fig 12 point."""

    def __init__(self, arm: PubSubArm, subscribers: int,
                 duration: float) -> None:
        super().__init__(arm, duration)
        self.subscribers = int(subscribers)
        self.lease = LEASE
        self.topics = TOPICS
        self.publishers = PUBLISHERS
        self.reader_rows: List[ReaderRow] = []
        self.matches_formed = 0
        self.matches_rejected = 0
        self.ownership_changes = 0
        self.liveliness_lost = 0
        self.liveliness_revived = 0
        self.grants = 0
        self.grant_denials = 0
        self.heartbeats_sent = 0
        self.contract_transitions = 0
        #: Durable samples replayed to late joiners (broker total).
        self.replays = 0
        #: Sends skipped by reader content filters (writer total).
        self.sends_filtered = 0
        #: Owner elections decided for partitions without the broker.
        self.partition_elections = 0
        self.divisor_grants = 0
        #: Fluid tail: per-subscriber delivered fps and loss fraction.
        self.tail_count = 0
        self.tail_per_sub_fps = 0.0
        self.tail_loss_fraction = 0.0
        self.fluid_epochs = 0

    # -- derived views --------------------------------------------------
    @property
    def mean_fps(self) -> float:
        rows = self.reader_rows
        return sum(r.fps for r in rows) / len(rows) if rows else 0.0

    @property
    def min_fps(self) -> float:
        return min((r.fps for r in self.reader_rows), default=0.0)

    @property
    def delivery_fraction(self) -> float:
        """Accepted deliveries / samples pushed (ownership filtering
        and loss both lower it)."""
        sent = sum(r.sent_to for r in self.reader_rows)
        got = sum(r.delivered for r in self.reader_rows)
        return got / sent if sent else 0.0

    @property
    def exactly_once(self) -> bool:
        """Every measured reader saw every pushed sample exactly once."""
        return all(r.delivered == r.sent_to and r.duplicates == 0
                   for r in self.reader_rows)

    @property
    def failover_gap(self) -> float:
        """Largest delivery gap any measured reader observed."""
        return max((r.max_gap for r in self.reader_rows), default=0.0)

    @property
    def late_rows(self) -> List[ReaderRow]:
        """Rows for the durable arm's late-joiner wave."""
        return [r for r in self.reader_rows if r.joined_at > 0.0]

    @property
    def total_deadline_misses(self) -> int:
        return sum(r.deadline_misses for r in self.reader_rows)


def _arm_policies(arm: PubSubArm, strength: int = 0):
    """(writer QoS, reader QoS) for one arm."""
    reliability = (Reliability.RELIABLE if arm.reliable
                   else Reliability.BEST_EFFORT)
    history = HistoryKind.KEEP_ALL if arm.reliable else HistoryKind.KEEP_LAST
    depth = KEEP_ALL_DEPTH if arm.reliable else 8
    ownership = (OwnershipKind.EXCLUSIVE if arm.ownership
                 else OwnershipKind.SHARED)
    durability = (Durability.TRANSIENT_LOCAL if arm.durable
                  else Durability.VOLATILE)
    offered = QosPolicy(
        reliability=reliability, history=history, depth=depth,
        deadline=WRITER_DEADLINE, latency_budget=OFFERED_BUDGET,
        lease=LEASE, ownership=ownership, strength=strength,
        durability=durability)
    requested = QosPolicy(
        reliability=reliability, history=history, depth=depth,
        deadline=READER_DEADLINE, latency_budget=REQUESTED_BUDGET,
        lease=None, ownership=ownership, durability=durability)
    return offered, requested


def _fault_plan(arm: PubSubArm, duration: float) -> List[Dict]:
    if not arm.faults:
        return []
    if arm.partition:
        # Cut the broker's uplink (partitioning control from data),
        # then crash the strongest publisher host *inside* the window:
        # the readers' partition must elect the reachable backups on
        # its own, and everything re-arbitrates after the heal.
        return [
            {"kind": "link_flap", "link": ["brk", "router"],
             "at": 0.40 * duration, "duration": 0.25 * duration},
            {"kind": "node_crash", "node": "pub0",
             "at": 0.45 * duration, "duration": 0.25 * duration},
        ]
    if arm.ownership:
        # Kill the strongest publisher host mid-run; restore later so
        # the lease-revival (and ownership preemption) path runs too.
        return [{"kind": "node_crash", "node": "pub0",
                 "at": 0.55 * duration, "duration": 0.25 * duration}]
    # Correlated loss on the fan-out bottleneck: best-effort samples
    # are gone, reliable ones come back via retransmission.
    return [{"kind": "loss_burst", "link": ["router", "sub"],
             "at": 0.3 * duration, "duration": 1.0, "loss": 0.35}]


def run_pubsub_experiment(
    arm: PubSubArm,
    subscribers: int = 1024,
    duration: float = 8.0,
    seed: int = 1,
    bottleneck_bps: float = FANOUT_BOTTLENECK_BPS,
    fault_plan: Optional[List[Dict[str, Any]]] = None,
    checks=None,
    tracer=None,
) -> PubSubResult:
    """Run one fig 12 arm at one total-subscriber count.

    ``fault_plan`` overrides the arm's canonical plan (the soak
    harness injects random faults this way); pass ``[]`` for a
    fault-free run of a faulted arm.
    """
    measured_total = TOPICS * MEASURED_PER_TOPIC
    if subscribers < measured_total:
        raise ValueError(
            f"need at least {measured_total} subscribers, got {subscribers}")
    bed = Testbed(seed, checks, tracer)
    kernel = bed.kernel
    interval = 1.0 / TOPIC_RATE_HZ

    # --- topology: K publisher hosts + broker + subscriber host around
    # one router; the router->sub link is the fan-out bottleneck.
    links = {f"pub{i}": ACCESS_BPS for i in range(PUBLISHERS)}
    links.update(brk=ACCESS_BPS, sub=bottleneck_bps)
    bottleneck = bed.star(links, dst="sub", default_bps=ACCESS_BPS,
                          band_capacity=BAND_CAPACITY,
                          intserv_bound=UTILIZATION_BOUND)
    net = bed.network

    controller = AdmissionController(net)
    broker = Broker(kernel, nic=net.nic_of("brk"), admission=controller,
                    network=net)

    # --- endpoints: topic t_i published from pub{i%K}; ownership arm
    # adds a weaker backup writer on the next host over.
    topics = [Topic(f"t{i}", SAMPLE_BYTES, TOPIC_RATE_HZ)
              for i in range(TOPICS)]
    writers: List[DataWriter] = []
    for i, topic in enumerate(topics):
        offered, _ = _arm_policies(arm, strength=OWNER_PRIMARY_STRENGTH)
        writer = DataWriter(kernel, topic, offered, f"w{i}.p",
                            nic=net.nic_of(f"pub{i % PUBLISHERS}"))
        broker.register_writer(writer)
        writers.append(writer)
        if arm.ownership:
            offered_b, _ = _arm_policies(
                arm, strength=OWNER_BACKUP_STRENGTH)
            backup = DataWriter(
                kernel, topic, offered_b, f"w{i}.b",
                nic=net.nic_of(f"pub{(i + 1) % PUBLISHERS}"))
            broker.register_writer(backup)
            writers.append(backup)

    readers: List[DataReader] = []
    qoskets: List[PacingQosket] = []
    joined_at: Dict[str, float] = {}
    for i, topic in enumerate(topics):
        for j in range(MEASURED_PER_TOPIC):
            _, requested = _arm_policies(arm)
            # Content filters split each topic's seq stream between
            # its two measured readers (writer-side evaluation).
            filter_expr = f"seq % 2 == {j % 2}" if arm.filtered else None
            reader = DataReader(kernel, topic, requested, f"r{i}.{j}",
                                nic=net.nic_of("sub"),
                                filter_expr=filter_expr)
            if arm.adaptive:
                qoskets.append(PacingQosket(kernel, reader))
            broker.register_reader(reader)
            readers.append(reader)

    # --- durable arm: a late-joiner wave registers mid-run and must
    # catch up from the writers' TRANSIENT_LOCAL caches.  (The wave is
    # deliberately absent from the fluid mirror below: its reserved
    # rate is a small constant on top of an already-booked band.)
    late_join_time = LATE_JOIN_FRACTION * duration

    def join_late() -> None:
        for i, topic in enumerate(topics):
            for j in range(LATE_PER_TOPIC):
                _, requested = _arm_policies(arm)
                reader = DataReader(kernel, topic, requested,
                                    f"r{i}.late{j}", nic=net.nic_of("sub"))
                joined_at[reader.name] = kernel.now
                broker.register_reader(reader)
                readers.append(reader)

    if arm.durable:
        kernel.schedule(late_join_time, join_late)

    # --- fluid tail: the remaining subscribers as per-topic aggregates
    engine = FluidEngine(kernel, quantum=1e-3)
    fl_bott = engine.attach_interface(
        "router->sub", bottleneck.a,
        queue_bytes=BAND_CAPACITY * (SAMPLE_BYTES + HEADER_BYTES))
    for reader in readers:
        for match in reader.matched.values():
            # Reserved matches booked headroom above nominal (retransmit
            # slack); mirror the same rate into the fluid share math.
            rate = (RESERVE_HEADROOM * WIRE_RATE_BPS if match.reserved
                    else WIRE_RATE_BPS)
            fl_bott.register_packet_load(rate, reserved=match.reserved)
    tail_total = subscribers - measured_total
    tail_counts = [tail_total // TOPICS] * TOPICS
    for i in range(tail_total % TOPICS):
        tail_counts[i] += 1
    # The tail adapts whenever the arm does; the ownership arm's tail
    # also adapts so the failover gap probes arbitration, not queueing.
    tail_adaptive = arm.adaptive or arm.ownership
    for topic, count in zip(topics, tail_counts):
        if count <= 0:
            continue
        engine.add_flow(f"tail:{topic.name}", count * WIRE_RATE_BPS,
                        [fl_bott], adaptive=tail_adaptive,
                        deadline=READER_DEADLINE)

    # --- faults: after the fluid flows, before the publishers ---------
    bed.inject(fault_plan, _fault_plan(arm, duration))

    # --- publish loops: staggered timers, each re-arming its own
    # handle, stopped DRAIN_GRACE before the horizon so in-flight
    # retransmissions drain.
    publish_until = duration - DRAIN_GRACE

    def make_publisher(writer: DataWriter, delay: float) -> None:
        def tick() -> None:
            if kernel.now > publish_until:
                return
            writer.write(writer.seq)
            kernel.rearm(handle, interval)
        handle = kernel.schedule(delay, tick)

    for k, writer in enumerate(writers):
        make_publisher(writer, k * interval / max(1, len(writers)))

    def stop_monitors() -> None:
        # Publishing is over: freeze the deadline monitors (and with
        # them the pacing ladders) so the drain window cannot register
        # spurious misses.
        for reader in readers:
            reader.stop_deadline_monitor()

    kernel.schedule(publish_until, stop_monitors)

    bed.watch(contracts=[qk.contract for qk in qoskets],
              fluid=engine, pubsub=broker)
    events = bed.run(until=duration)

    # --- capture ------------------------------------------------------
    result = PubSubResult(arm, subscribers, duration)
    window = publish_until
    for reader in readers:
        divisor = max((m.divisor for m in reader.matched.values()),
                      default=1)
        result.reader_rows.append(ReaderRow(
            name=reader.name,
            topic=reader.topic.name,
            writers=len(reader.matched),
            sent_to=sum(m.sent for m in reader.matched.values()),
            delivered=reader.delivered,
            duplicates=reader.duplicates,
            filtered=reader.ownership_filtered,
            unmatched=reader.from_unmatched,
            deadline_misses=reader.deadline_misses,
            budget_violations=reader.budget_violations,
            history_rejected=reader.history.rejected,
            fps=reader.delivered / window if window > 0 else 0.0,
            mean_latency=reader.mean_latency,
            max_gap=reader.max_gap,
            divisor=divisor,
            replayed=sum(m.replayed for m in reader.matched.values()),
            downsampled=reader.downsampled,
            stale=reader.stale_drops,
            joined_at=joined_at.get(reader.name, 0.0),
        ))
    result.matches_formed = broker.matches_formed
    result.matches_rejected = broker.matches_rejected
    result.ownership_changes = broker.ownership_changes
    result.replays = broker.replays
    result.partition_elections = broker.partition_elections
    result.divisor_grants = broker.divisor_grants
    result.sends_filtered = sum(w.sends_filtered for w in writers)
    for monitor in broker.monitors.values():
        result.liveliness_lost += monitor.lost_count
        result.liveliness_revived += sum(
            1 for kind, _ in monitor.transitions if kind == "revived")
    result.grants = broker.grants
    result.grant_denials = broker.grant_denials
    result.heartbeats_sent = sum(w.heartbeats_sent for w in writers)
    result.contract_transitions = sum(
        len(qk.contract.transitions) for qk in qoskets)

    wire_sample_bytes = WIRE_RATE_BPS / 8.0 / TOPIC_RATE_HZ
    result.tail_count = tail_total
    offered = served = lost = 0.0
    for flow in engine.flows():
        offered += flow.offered_bytes
        served += flow.served_bytes
        lost += flow.lost_bytes
    if tail_total > 0 and duration > 0:
        result.tail_per_sub_fps = (
            served / wire_sample_bytes / duration / tail_total)
    result.tail_loss_fraction = lost / offered if offered > 0 else 0.0
    result.events_executed = events
    result.fluid_epochs = engine.epochs
    engine.close()
    broker.close()
    return result


# ----------------------------------------------------------------------
# Rendering and claims
# ----------------------------------------------------------------------
def render_fig12_pubsub(sweeps: "Dict[str, List[PubSubResult]]") -> str:
    """One table per arm over the subscriber sweep + failover recap."""
    sections = []
    ownership_results: List[PubSubResult] = []
    durable_results: List[PubSubResult] = []
    filtered_results: List[PubSubResult] = []
    partition_results: List[PubSubResult] = []
    for arm_name, results in sweeps.items():
        rows = []
        for result in results:
            rows.append((
                result.subscribers,
                result.matches_formed,
                f"{result.mean_fps:.2f}",
                f"{result.min_fps:.2f}",
                f"{result.delivery_fraction * 100:.1f}%",
                result.total_deadline_misses,
                "yes" if result.exactly_once else "no",
                f"{result.tail_per_sub_fps:.2f}",
                f"{result.tail_loss_fraction * 100:.1f}%",
                f"{result.failover_gap:.3f}",
                result.events_executed,
            ))
            if arm_name == "ownership":
                ownership_results.append(result)
            elif arm_name == "durable":
                durable_results.append(result)
            elif arm_name == "filtered":
                filtered_results.append(result)
            elif arm_name == "partition":
                partition_results.append(result)
        table = render_table(
            ("subs", "matches", "fps", "min fps", "delivery",
             "misses", "1x", "tail fps", "tail loss", "max gap", "events"),
            rows)
        sections.append(f"Fig 12 — pub-sub fan-out gauntlet — {arm_name}\n"
                        f"{table}")

    if ownership_results:
        lines = ["ownership failover (lease "
                 f"{ownership_results[0].lease:g} s; gap = largest "
                 "delivery hole at any measured reader):"]
        for result in ownership_results:
            lines.append(
                f"  subs={result.subscribers:>5}: "
                f"lost={result.liveliness_lost} "
                f"revived={result.liveliness_revived} "
                f"handoffs={result.ownership_changes} "
                f"gap={result.failover_gap:.3f} s")
        sections.append("\n".join(lines))

    if durable_results:
        lines = ["durable late-joiner catch-up (TRANSIENT_LOCAL replay "
                 "from the writer history cache at match time):"]
        for result in durable_results:
            late = result.late_rows
            replayed = sum(r.replayed for r in late)
            dup = sum(r.duplicates for r in late)
            complete = all(r.delivered == r.sent_to for r in late)
            lines.append(
                f"  subs={result.subscribers:>5}: "
                f"late_readers={len(late)} "
                f"replayed={replayed} duplicates={dup} "
                f"complete={'yes' if complete else 'no'}")
        sections.append("\n".join(lines))

    if filtered_results:
        lines = ["content filters (seq % 2 == j, evaluated writer-side; "
                 "filtered samples never cross the wire):"]
        for result in filtered_results:
            lines.append(
                f"  subs={result.subscribers:>5}: "
                f"sends_filtered={result.sends_filtered} "
                f"mean_fps={result.mean_fps:.2f} "
                f"1x={'yes' if result.exactly_once else 'no'}")
        sections.append("\n".join(lines))

    if partition_results:
        lines = ["partition/heal cycle (broker uplink flap + primary "
                 "crash; readers elect reachable writers per partition):"]
        for result in partition_results:
            lines.append(
                f"  subs={result.subscribers:>5}: "
                f"elections={result.partition_elections} "
                f"handoffs={result.ownership_changes} "
                f"lost={result.liveliness_lost} "
                f"revived={result.liveliness_revived} "
                f"gap={result.failover_gap:.3f} s")
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


#: Measured readers per arm (two per topic).
MEASURED = TOPICS * MEASURED_PER_TOPIC
#: The contracted floor: the deepest ladder rung still delivers this.
FLOOR_FPS = TOPIC_RATE_HZ / ADAPT_LADDER[-1]
#: The populations past the fan-out knee (~5x and ~10x oversubscribed).
_OVERSUBSCRIBED = (1024, 2048)


_at = sweep_lookup("subscribers")


def _adapted_above_the_floor(runs: "Dict[str, List[PubSubResult]]",
                             subscribers: int) -> bool:
    """The ladder engaged (region churn beyond the initial entry) and
    holds every measured reader above the contracted floor, far above
    best effort's starved readers."""
    adapted = _at(runs, "adaptive", subscribers)
    flooded = _at(runs, "best-effort", subscribers)
    return (adapted.contract_transitions > MEASURED
            and adapted.min_fps >= FLOOR_FPS
            and adapted.min_fps > 5 * max(flooded.min_fps, 1.0)
            and adapted.delivery_fraction >= 0.8
            and adapted.mean_fps >= 3 * flooded.mean_fps)


def _owner_fails_over(owner: PubSubResult) -> bool:
    """Leases expire and revive, arbitration hands off beyond the
    initial one per topic, and EXCLUSIVE filtering delivers one
    writer's stream although primary and backup both publish."""
    return (owner.liveliness_lost >= 1
            and owner.liveliness_revived >= 1
            and owner.ownership_changes > TOPICS
            and owner.delivery_fraction < 0.6
            and not owner.exactly_once)


def _late_joiners_catch_up(point: PubSubResult) -> bool:
    """Late matches reserve too; each late reader replays the full
    pre-join backlog, and replay + live traffic stays duplicate-free."""
    late = point.late_rows
    backlog = LATE_JOIN_FRACTION * point.duration * TOPIC_RATE_HZ
    return (point.grants == MEASURED + TOPICS
            and len(late) == TOPICS
            and all(row.replayed >= backlog - 3 for row in late)
            and point.replays == sum(row.replayed for row in late)
            and all(row.duplicates == 0 for row in point.reader_rows))


def _filters_split_the_topic(point: PubSubResult) -> bool:
    return (point.grants == MEASURED
            and point.sends_filtered > 0
            and point.exactly_once
            and point.delivery_fraction >= 0.999
            and abs(point.mean_fps - TOPIC_RATE_HZ / 2.0) <= 1.0
            and point.min_fps >= TOPIC_RATE_HZ / 2.0 - 1.0)


def _partition_elects_reachable_owners(point: PubSubResult) -> bool:
    """Owners elected without the broker's view, every writer's lease
    lost and revived across the cut, EXCLUSIVE filtering intact, no
    measured reader starved, and every handoff within two leases."""
    return (point.partition_elections >= 2
            and point.ownership_changes > TOPICS
            and point.liveliness_lost >= 2 * TOPICS
            and point.liveliness_revived >= 2 * TOPICS
            and point.delivery_fraction < 0.6
            and point.min_fps > FLOOR_FPS
            and point.failover_gap <= 2 * LEASE)


FIG12_CLAIMS = (
    Claim("the sweep runs 128, 1024 and 2048 subscribers",
          lambda runs: sorted(point.subscribers
                              for point in runs["reliable"])
          == [128, 1024, 2048]),
    Claim("discovery formed the full measured mesh in every arm",
          lambda runs: all(
              point.matches_formed == MEASURED
              for arm in ("best-effort", "reliable", "adaptive", "filtered")
              for point in runs[arm])
          and all(point.matches_formed == 2 * MEASURED
                  for arm in ("ownership", "partition")
                  for point in runs[arm])
          and all(point.matches_formed == MEASURED + TOPICS
                  for point in runs["durable"])),
    Claim("RELIABLE + KEEP_ALL claims reserve budget for every match and "
          "stays exactly-once at every population",
          lambda runs: all(point.grants == MEASURED and point.exactly_once
                           and point.delivery_fraction >= 0.999
                           for point in runs["reliable"])),
    Claim("...paying for it in deadline misses while retransmissions drain",
          lambda runs: all(point.total_deadline_misses > 0
                           for point in runs["reliable"])),
    Claim("best effort never reserves, and the loss burst bites it even "
          "when capacity fits",
          lambda runs: _at(runs, "best-effort", 128).grants == 0
          and not _at(runs, "best-effort", 128).exactly_once
          and _at(runs, "best-effort", 128).delivery_fraction >= 0.9),
    Claim("best effort collapses past the knee and some reader starves",
          lambda runs: all(
              _at(runs, "best-effort", subs).delivery_fraction < 0.25
              and _at(runs, "best-effort", subs).min_fps == 0.0
              for subs in _OVERSUBSCRIBED)
          and _at(runs, "best-effort", 2048).delivery_fraction
          < _at(runs, "best-effort", 1024).delivery_fraction + 1e-9),
    Claim("deadline-adaptive readers miss nothing when capacity fits",
          lambda runs: _at(runs, "adaptive", 128).total_deadline_misses == 0
          and _at(runs, "adaptive", 128).exactly_once),
    Claim("past the knee the pacing ladder keeps every reader above the "
          "contracted floor, where best effort starves outright",
          lambda runs: all(_adapted_above_the_floor(runs, subs)
                           for subs in _OVERSUBSCRIBED)),
    Claim("ownership fails over to the strongest live backup and back",
          lambda runs: all(_owner_fails_over(point)
                           for point in runs["ownership"])),
    Claim("at nominal load the backup's stream flows within one lease of "
          "the crash",
          lambda runs: _at(runs, "ownership", 128).failover_gap <= LEASE),
    Claim("under 10x oversubscription failover still completes within two "
          "leases",
          lambda runs: all(_at(runs, "ownership", subs).failover_gap
                           <= 2 * LEASE for subs in _OVERSUBSCRIBED)),
    Claim("TRANSIENT_LOCAL late joiners replay the full backlog, "
          "duplicate-free",
          lambda runs: all(_late_joiners_catch_up(point)
                           for point in runs["durable"])),
    Claim("at nominal load catch-up completes: every late reader received "
          "its history plus the live stream, exactly once",
          lambda runs: _at(runs, "durable", 128).exactly_once
          and all(row.delivered == row.sent_to
                  for row in _at(runs, "durable", 128).late_rows)
          and _at(runs, "durable", 128).delivery_fraction >= 0.999),
    Claim("complementary content filters split each topic writer-side: "
          "half rate per reader, exactly-once",
          lambda runs: all(_filters_split_the_topic(point)
                           for point in runs["filtered"])),
    Claim("a partition elects the strongest reachable writer and the heal "
          "re-arbitrates everything back",
          lambda runs: all(_partition_elects_reachable_owners(point)
                           for point in runs["partition"])),
    Claim("16x the population costs under 4x the events: the tail is "
          "fluid, not packets",
          lambda runs: all(
              _at(runs, arm, 2048).events_executed
              < 4 * _at(runs, arm, 128).events_executed
              and _at(runs, arm, 2048).fluid_epochs >= 1
              for arm in runs)),
)
