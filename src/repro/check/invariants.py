"""Runtime invariant monitors over the trace stream.

Each :class:`InvariantChecker` watches one conservation or sanity law
of the simulation — packet conservation, ledger bounds, scheduler
state — by consuming the same trace records the observability layer
already emits, plus read-only walks of the live object graph
(:class:`~repro.check.world.World`).  A :class:`CheckSuite` bundles
checkers behind a single :class:`~repro.obs.sinks.TraceSink`-shaped
object, so installing the suite is just adding a sink; with no suite
installed the simulation pays nothing (the ``kernel.tracer is None``
fast path).

Checkers are *fail-fast*: the first violated invariant raises
:class:`InvariantViolation` out of the emitting instrumentation site,
aborting the run at the exact simulated instant the books stopped
balancing.  ``final_check()`` runs the teardown laws (no silently
consumed packets, ledgers within bounds, scheduler quiescent-sane)
after ``kernel.run`` returns.

Checkers never mutate simulation state and never consume random
numbers, so a checked run produces bit-identical results to an
unchecked one.

Three rules keep a checked run affordable (DESIGN §12):

* a checker *declares* the record kinds it acts on (``kinds``): exactly
  those after which the state its law reads can differ, since a law
  re-evaluated over state that has not moved checks nothing new; the
  tracer's one table routes by ``(layer, kind)`` straight to
  ``on_event``, which never re-tests the kind and is never called for
  a record it would ignore;
* a law evaluated per record is written ``if <violated>: self.fail(...)``
  so its context is only built when it is about to be raised;
  :meth:`InvariantChecker.require` is for ``final_check`` paths;
* a law over state that moves in one loop is evaluated in that loop:
  the clock moves only in the kernel's dispatch loop, so the kernel
  compares there and reports a backward move as one ``clock.regress``
  record, and no record is built per event for the time law.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.sim.quantize import EPSILON
from repro.obs.trace import TraceRecord, Tracer
from repro.check.world import World
from repro.oskernel.thread import DEAD, RUNNING
from repro.net.router import Router
from repro.net.routing import spf_routes, spf_search, two_way_adjacency
from repro.pubsub.dedup import DEDUP_WINDOW
from repro.pubsub.policies import OwnershipKind

__all__ = [
    "InvariantViolation",
    "InvariantChecker",
    "CheckSuite",
    "TimeMonotonicityChecker",
    "QdiscAccountingChecker",
    "TokenBucketChecker",
    "ReserveLedgerChecker",
    "PacketConservationChecker",
    "ContractChecker",
    "ThreadStateChecker",
    "FluidConservationChecker",
    "RoutingChecker",
    "default_suite",
]

#: Slack for comparing float ledgers (shared numeric policy).
_LEDGER_SLACK = 1e-9


class InvariantViolation(AssertionError):
    """A runtime invariant failed.

    Subclasses :class:`AssertionError` so generic test harnesses treat
    it as a failed assertion, while soak drivers can catch it
    specifically and attach the reproducing configuration.
    """

    def __init__(self, checker: str, message: str,
                 context: Optional[dict] = None) -> None:
        self.checker = checker
        self.message = message
        self.context = dict(context or {})
        detail = ""
        if self.context:
            pairs = ", ".join(
                f"{key}={value!r}" for key, value in sorted(self.context.items())
            )
            detail = f" [{pairs}]"
        super().__init__(f"[{checker}] {message}{detail}")

    def __reduce__(self):
        # Rebuilt from its fields, not from ``args`` (the one formatted
        # message): a violation raised in a pool worker is pickled back
        # to the parent, and a failed unpickle there hangs ``pool.map``.
        return (type(self), (self.checker, self.message, self.context))


class InvariantChecker:
    """Base monitor: attach to a world, watch records, check teardown.

    Attributes
    ----------
    name:
        Short identifier used in violation messages.
    layers:
        Trace layers this checker wants (``None`` = every layer).
    kinds:
        Record kinds within those layers that :meth:`on_event` acts on
        (``None`` = every kind): the kinds after which the state the
        law reads can differ.  This is the only place interest is
        stated: the tracer never hands over any other record, so
        ``on_event`` bodies do not test ``record.kind`` to bail out.
    """

    name = "invariant"
    layers: Optional[tuple] = None
    kinds: Optional[FrozenSet[str]] = None

    def __init__(self) -> None:
        self.world: Optional[World] = None

    def declares(self, layer: str, kind: str) -> bool:
        """Whether ``(layer, kind)`` records are handed to this checker."""
        return ((self.layers is None or layer in self.layers)
                and (self.kinds is None or kind in self.kinds))

    def attach(self, world: World) -> None:
        """Start watching ``world``.  A checker with per-run law state
        (what its records built up) starts it afresh here, so a suite
        installed for a second run does not judge it by the first."""
        self.world = world

    def detach(self) -> None:
        """Undo :meth:`attach`: drop every reference into the world.
        Public counters and what records built up stay readable until
        the next :meth:`attach`."""
        self.world = None

    def on_event(self, record: TraceRecord) -> None:  # pragma: no cover
        """Called for every record of this checker's layers and kinds."""

    def final_check(self) -> None:  # pragma: no cover
        """Called once after the run; assert teardown laws."""

    # ------------------------------------------------------------------
    def fail(self, message: str, **context) -> None:
        if self.world is not None:
            context.setdefault("time", self.world.kernel.now)
        raise InvariantViolation(self.name, message, context)

    def require(self, condition: bool, message: str, **context) -> None:
        """``fail`` unless ``condition``.  The context is built on every
        call, so this is for ``final_check`` paths; per-record laws test
        first and call :meth:`fail` inside the failing branch."""
        if not condition:
            self.fail(message, **context)


class CheckSuite:
    """A set of invariant checkers, installed as one sink of a tracer.

    Usage::

        suite = default_suite()
        suite.install(World(kernel, network=net, hosts=hosts))
        kernel.run(until=duration)
        suite.final_check()

    ``install`` reuses the kernel's tracer when one is attached (the
    suite becomes an extra sink) or attaches a private tracer
    otherwise; ``uninstall`` undoes exactly what ``install`` did,
    detaching every checker, so a suite the caller holds keeps no
    run's world alive.

    The suite keeps no dispatch table and no per-record counter.  The
    tracer asks :meth:`route` once per ``(layer, kind)`` and calls the
    checkers' ``on_event`` straight from its own table, whatever its
    layer allow-list (that filters plain sinks only).  The counters
    are read off the tracer's per-pair counts since install.
    """

    def __init__(self, checkers: List[InvariantChecker]) -> None:
        self.checkers = list(checkers)
        self.world: Optional[World] = None
        self._tracer: Optional[Tracer] = None
        self._owns_tracer = False
        #: The tracer's tally at install.
        self._tally_at_install: Dict[Tuple[str, str], int] = {}
        #: (layer, kind) -> records routed up to the last ``uninstall``.
        self._routed_before: Dict[Tuple[str, str], int] = {}
        #: A weak reference to the kernel of the last install (``None``
        #: before any): what the retention law looks for after a run.
        self.watched: Optional[weakref.ref] = None

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, world: World, tracer: Optional[Tracer] = None) -> "CheckSuite":
        """Attach every checker to ``world`` and start watching traces."""
        self.world = world
        self.watched = weakref.ref(world.kernel)
        for checker in self.checkers:
            checker.attach(world)
        if tracer is None:
            tracer = world.kernel.tracer
        self._owns_tracer = tracer is None
        if self._owns_tracer:
            tracer = Tracer(sinks=[]).attach(world.kernel)
        self._tally_at_install = tracer.tally()
        tracer.add_sink(self)
        self._tracer = tracer
        return self

    def uninstall(self) -> None:
        """Stop watching; detaches the private tracer if we created it
        and every checker from the world.  The counters keep what was
        routed until now."""
        if self._tracer is not None:
            self._routed_before = self._routed()
            if self in self._tracer.sinks:
                self._tracer.remove_sink(self)
            if self._owns_tracer:
                self._tracer.detach()
        self._tracer = None
        self._owns_tracer = False
        for checker in self.checkers:
            checker.detach()
        self.world = None

    # ------------------------------------------------------------------
    # Routing (the tracer's table holds the result)
    # ------------------------------------------------------------------
    def route(self, layer: str, kind: str) -> tuple:
        """Who is handed ``(layer, kind)`` records: the layer's
        subscribers, then the every-layer checkers, each only if it
        declared ``kind`` (or declared no ``kinds`` at all)."""
        subscribers = [c for c in self.checkers
                       if c.layers is not None and layer in c.layers]
        every_layer = [c for c in self.checkers if c.layers is None]
        return tuple(checker.on_event for checker in subscribers + every_layer
                     if checker.declares(layer, kind))

    def emit(self, record: TraceRecord) -> None:
        """Replay entry: hand a built record through the tracer's table."""
        if self._tracer is None:
            raise RuntimeError("install the suite before handing it records")
        self._tracer.dispatch(record)

    def close(self) -> None:
        """TraceSink protocol; nothing to flush."""

    # ------------------------------------------------------------------
    def final_check(self) -> None:
        """Run every checker's teardown laws (call after kernel.run)."""
        for checker in self.checkers:
            checker.final_check()

    def _routed(self) -> Dict[Tuple[str, str], int]:
        """(layer, kind) -> records the tracer routed while installed."""
        routed = dict(self._routed_before)
        if self._tracer is not None:
            before = self._tally_at_install
            for key, count in self._tracer.tally().items():
                count -= before.get(key, 0)
                if count:
                    routed[key] = routed.get(key, 0) + count
        return routed

    @property
    def events_dispatched(self) -> int:
        """Records whose layer has a subscribing checker."""
        subscribed = {layer for checker in self.checkers
                      if checker.layers is not None
                      for layer in checker.layers}
        return sum(count for (layer, _), count in self._routed().items()
                   if layer in subscribed)

    def summary(self) -> Dict[str, int]:
        """Checker name -> records handed to it."""
        routed = self._routed()
        return {
            checker.name: sum(count for (layer, kind), count in routed.items()
                              if checker.declares(layer, kind))
            for checker in self.checkers
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CheckSuite {[c.name for c in self.checkers]}>"


# ----------------------------------------------------------------------
# Individual monitors
# ----------------------------------------------------------------------
class TimeMonotonicityChecker(InvariantChecker):
    """The kernel clock, and so every record's time, never runs backwards.

    Every record is stamped with ``kernel.now``, and only the kernel
    writes ``now``: at a dispatch, or forward to ``run(until)``'s
    horizon.  The law is evaluated where the clock moves (DESIGN §12):
    the kernel's traced dispatch loop compares each entry's time with
    ``now`` before moving the clock, and reports a backward move as a
    ``sim`` ``clock.regress`` record, this checker's one kind.
    ``final_check`` covers the horizon: the clock must not end before
    where the last traced dispatch loop left it
    (``Kernel.traced_clock``); one that does went back at the horizon.
    """

    name = "time-monotonic"
    #: Every layer, not ``("sim",)``: a ``sim`` subscriber would make
    #: every ``sim`` record count in ``events_dispatched``.
    layers = None
    kinds = frozenset(("clock.regress",))

    def on_event(self, record: TraceRecord) -> None:
        fields = record.fields
        self.fail(
            "event time ran backwards",
            event=fields["callback"], event_time=fields["due"],
            previous_time=record.time, previous_event=fields["after"],
        )

    def final_check(self) -> None:
        kernel = self.world.kernel
        last = kernel.traced_clock
        if last == float("-inf"):
            return
        self.require(
            kernel.now + EPSILON >= last,
            "kernel clock ended before the last trace record",
            kernel_now=kernel.now, last_record=last,
        )


class QdiscAccountingChecker(InvariantChecker):
    """Queue books balance: ``len(q) == enqueued - dequeued`` always.

    (Dropped packets never enter the queue, so they do not appear in
    the length identity; ``dropped`` is separately required to be
    non-negative, to equal the per-flow drop ledger, and to have grown
    by exactly one per ``hop.drop`` record the interface emitted since
    attach: a rejection that bypasses the books is caught on any
    discipline.)
    """

    name = "qdisc-accounting"
    layers = ("net",)
    #: The ``hop.*`` kinds an :class:`~repro.net.link.Interface` emits
    #: after moving its egress books: ``enqueue`` / ``dequeue`` are only
    #: called from ``link.py``, each followed by one of these records.
    #: A ``hop.rx`` or ``hop.loss`` names a port whose books did not move.
    kinds = frozenset(("hop.enqueue", "hop.drop", "hop.dequeue"))

    def __init__(self) -> None:
        super().__init__()
        self._qdiscs: Dict[str, object] = {}
        #: label -> ``qdisc.dropped`` at attach + hop.drop records since.
        self._drops_expected: Dict[str, int] = {}

    def attach(self, world: World) -> None:
        super().attach(world)
        self._qdiscs = world.qdiscs()
        self._drops_expected = {
            label: qdisc.dropped for label, qdisc in self._qdiscs.items()}

    def detach(self) -> None:
        super().detach()
        self._qdiscs = {}

    def _check_one(self, label: str, qdisc) -> None:
        held = len(qdisc)
        if not held == qdisc.enqueued - qdisc.dequeued:
            self.fail(
                "queue length disagrees with enqueue/dequeue books",
                qdisc=label, len=held, enqueued=qdisc.enqueued,
                dequeued=qdisc.dequeued, dropped=qdisc.dropped,
            )
        if not (qdisc.enqueued >= 0 and qdisc.dequeued >= 0
                and qdisc.dropped >= 0):
            self.fail(
                "negative queue counter", qdisc=label,
                enqueued=qdisc.enqueued, dequeued=qdisc.dequeued,
                dropped=qdisc.dropped,
            )

    def _check_drops_booked(self, label: str, qdisc) -> None:
        """The drop laws: only a drop moves ``dropped`` and the per-flow
        ledger, so they run at ``hop.drop`` and at teardown."""
        flow_drops = sum(qdisc.drops_by_flow.values())
        if not flow_drops == qdisc.dropped:
            self.fail(
                "per-flow drop ledger disagrees with the drop counter",
                qdisc=label, dropped=qdisc.dropped, by_flow=flow_drops,
            )
        if not qdisc.dropped == self._drops_expected[label]:
            self.fail(
                "drop not booked", qdisc=label, dropped=qdisc.dropped,
                expected=self._drops_expected[label],
            )

    def on_event(self, record: TraceRecord) -> None:
        fields = record.fields or {}
        label = fields.get("iface")
        if label is None:
            return
        qdisc = self._qdiscs.get(label)
        if qdisc is not None:
            self._check_one(label, qdisc)
            if record.kind == "hop.drop":
                self._drops_expected[label] += 1
                self._check_drops_booked(label, qdisc)

    def final_check(self) -> None:
        for label, qdisc in self._qdiscs.items():
            self._check_one(label, qdisc)
            self._check_drops_booked(label, qdisc)


class TokenBucketChecker(InvariantChecker):
    """Every policing bucket holds ``0 <= tokens <= depth`` always.

    Reads the raw ``_tokens`` field deliberately: the ``tokens``
    property refills as a side effect, and a checker-triggered refill
    would change float accumulation and break the bit-identity
    guarantee.
    """

    name = "token-bucket"
    layers = ("net",)
    #: ``GuaranteedRateQueue.enqueue`` is the only caller of
    #: ``try_consume``, and either record follows it: a conforming
    #: packet can still be dropped on reserved-lane overflow.
    kinds = frozenset(("hop.enqueue", "hop.drop"))

    def __init__(self) -> None:
        super().__init__()
        self._grqs: Dict[str, object] = {}

    def attach(self, world: World) -> None:
        super().attach(world)
        self._grqs = {
            label: qdisc for label, qdisc in world.qdiscs().items()
            if hasattr(qdisc, "reserved_flows")
        }

    def detach(self) -> None:
        super().detach()
        self._grqs = {}

    def _check_bucket(self, label: str, flow_id: str, bucket) -> None:
        tokens = bucket._tokens
        if not 0.0 <= tokens <= bucket.depth_bytes:
            self.fail(
                "token count escaped [0, depth]",
                qdisc=label, flow=flow_id, tokens=tokens,
                depth=bucket.depth_bytes,
            )

    def on_event(self, record: TraceRecord) -> None:
        """Only the record's flow's bucket was charged."""
        label = (record.fields or {}).get("iface")
        qdisc = self._grqs.get(label)
        if qdisc is not None:
            bucket = qdisc._buckets.get(record.flow)
            if bucket is not None:
                self._check_bucket(label, record.flow, bucket)

    def final_check(self) -> None:
        for label, qdisc in self._grqs.items():
            for flow_id, bucket in qdisc._buckets.items():
                self._check_bucket(label, flow_id, bucket)


class ReserveLedgerChecker(InvariantChecker):
    """CPU-reserve and RSVP admission ledgers stay within their bounds.

    * per manager: ``sum(C/T)`` over admitted reserves never exceeds
      the utilization bound, and each budget sits in ``[0, C]``;
    * per RSVP agent and interface: installed reservation rates sum to
      at most ``bandwidth * utilization_bound`` and are each positive.

    Budgets are read raw (no ``sync()``), since syncing replenishes —
    a mutation a checker must never cause.
    """

    name = "reserve-ledger"
    layers = ("os", "net")
    #: ``os`` records that move a CPU-reserve budget, ``net`` records
    #: that move an RSVP table; :meth:`on_event` tells them by layer.
    kinds = frozenset(("reserve.replenish", "reserve.deplete",
                       "rsvp.release"))

    def _check_cpu_ledgers(self) -> None:
        for manager in self.world.reserve_managers():
            total = 0.0
            for reserve in manager._reserves:
                total += reserve.compute / reserve.period
                if not (-_LEDGER_SLACK <= reserve.budget_remaining
                        <= reserve.compute + _LEDGER_SLACK):
                    self.fail(
                        "reserve budget escaped [0, C]",
                        reserve=reserve.reserve_id,
                        budget=reserve.budget_remaining,
                        compute=reserve.compute,
                    )
                if not reserve.active:
                    self.fail(
                        "cancelled reserve still on the manager's books",
                        reserve=reserve.reserve_id,
                    )
            if not total <= manager.utilization_bound + _LEDGER_SLACK:
                self.fail(
                    "admitted CPU utilization exceeds the bound",
                    cpu=manager.cpu.name, total=total,
                    bound=manager.utilization_bound,
                )

    def _check_rsvp_ledgers(self) -> None:
        for agent in self.world.rsvp_agents():
            for interface, table in agent._reserved.items():
                # Admission was granted against the as-built rate; a
                # fault-layer degrade may transiently leave admitted
                # reservations above the *current* rate (the paper's
                # adaptation story reacts to that — RSVP does not
                # auto-revoke), so the ledger law binds the nominal.
                capacity = (
                    interface.link.nominal_bandwidth_bps
                    * agent.utilization_bound
                )
                reserved = 0.0
                for flow_id, rate in table.items():
                    if not rate > 0.0:
                        self.fail(
                            "non-positive reserved rate installed",
                            iface=interface.label, flow=flow_id, rate=rate,
                        )
                    reserved += rate
                if not reserved <= capacity + _LEDGER_SLACK:
                    self.fail(
                        "RSVP reservations exceed the link budget",
                        iface=interface.label,
                        reserved=reserved, capacity=capacity,
                    )

    def on_event(self, record: TraceRecord) -> None:
        if record.layer == "os":
            self._check_cpu_ledgers()
        else:
            self._check_rsvp_ledgers()

    def final_check(self) -> None:
        self._check_cpu_ledgers()
        self._check_rsvp_ledgers()


class PacketConservationChecker(InvariantChecker):
    """Every data packet ends in exactly one accounted fate.

    Per packet id a small state machine follows the hop trace:
    ``QUEUED`` (in a qdisc), ``WIRE`` (serializing/propagating),
    ``DEVICE`` (received, being routed or delivered), and the terminal
    fates ``DELIVERED`` / ``DROPPED`` / ``LOST`` / ``UNROUTABLE`` /
    ``UNDELIVERABLE``.  Illegal transitions — a packet dequeued while
    not queued, delivered twice, touched after a terminal fate — fail
    immediately.  At teardown no packet may remain in ``DEVICE`` (that
    is a silently consumed packet: it was received but neither
    forwarded, delivered, nor counted as a drop), and the number of
    tracked ``QUEUED`` packets can never exceed what the queues
    physically hold.

    RSVP signaling (flow ids starting ``"rsvp:"``) is excluded:
    signaling packets are legitimately consumed and re-created at
    every hop, so per-id conservation does not apply.
    """

    name = "packet-conservation"
    layers = ("net",)

    QUEUED = "queued"
    WIRE = "wire"
    DEVICE = "device"
    DELIVERED = "delivered"
    DROPPED = "dropped"
    LOST = "lost"
    UNROUTABLE = "unroutable"
    UNDELIVERABLE = "undeliverable"

    _TERMINAL = frozenset((DELIVERED, DROPPED, LOST, UNROUTABLE,
                           UNDELIVERABLE))

    #: kind -> (allowed previous states, next state); ``None`` in the
    #: allowed set means "first sighting of this packet id".
    _TRANSITIONS = {
        "hop.enqueue": (frozenset((None, DEVICE)), QUEUED),
        "hop.drop": (frozenset((None, DEVICE)), DROPPED),
        "hop.dequeue": (frozenset((QUEUED,)), WIRE),
        "hop.loss": (frozenset((WIRE,)), LOST),
        "hop.rx": (frozenset((WIRE,)), DEVICE),
        "route.unroutable": (frozenset((DEVICE,)), UNROUTABLE),
        "nic.deliver": (frozenset((None, DEVICE)), DELIVERED),
        "nic.undeliverable": (frozenset((None, DEVICE)), UNDELIVERABLE),
    }

    kinds = frozenset(_TRANSITIONS) | {"route.forward"}

    def attach(self, world: World) -> None:
        # Per run: packet ids restart at 1 on every kernel.
        super().attach(world)
        self._state: Dict[int, str] = {}
        self._flow: Dict[int, str] = {}
        self.tracked = 0

    def _counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for state in self._state.values():
            counts[state] = counts.get(state, 0) + 1
        return counts

    def on_event(self, record: TraceRecord) -> None:
        if record.flow is None or record.flow.startswith("rsvp:"):
            return
        packet_id = (record.fields or {}).get("packet")
        if packet_id is None:
            return
        previous = self._state.get(packet_id)
        if record.kind == "route.forward":
            if not previous == self.DEVICE:
                self.fail(
                    "packet routed while not held by a device",
                    packet=packet_id, flow=record.flow, state=previous,
                )
            return
        allowed, nxt = self._TRANSITIONS[record.kind]
        if previous in self._TERMINAL:
            self.fail(
                "packet resurrected after a terminal fate",
                packet=packet_id, flow=record.flow, state=previous,
                event=record.kind,
            )
        if previous not in allowed:
            self.fail(
                "illegal packet life-cycle transition",
                packet=packet_id, flow=record.flow, state=previous,
                event=record.kind,
            )
        if previous is None:
            self.tracked += 1
            self._flow[packet_id] = record.flow
        self._state[packet_id] = nxt

    def final_check(self) -> None:
        counts = self._counts()
        leaked = [
            (pid, self._flow.get(pid))
            for pid, state in self._state.items() if state == self.DEVICE
        ]
        self.require(
            not leaked,
            "packets received by a device but never delivered, forwarded "
            "or dropped",
            leaked=leaked[:10], count=len(leaked),
        )
        physically_queued = sum(
            len(qdisc) for qdisc in self.world.qdiscs().values()
        )
        tracked_queued = counts.get(self.QUEUED, 0)
        self.require(
            tracked_queued <= physically_queued,
            "more packets tracked as queued than the queues hold",
            tracked=tracked_queued, physical=physically_queued,
        )
        terminal = sum(counts.get(state, 0) for state in self._TERMINAL)
        in_flight = tracked_queued + counts.get(self.WIRE, 0)
        self.require(
            terminal + in_flight == self.tracked,
            "packet fates do not partition the packets sent",
            terminal=terminal, in_flight=in_flight, tracked=self.tracked,
        )


class ContractChecker(InvariantChecker):
    """Region transitions chain causally and callbacks never nest.

    Trace-level: for each contract, every transition's ``from_region``
    must equal the previous transition's ``to_region`` (the re-entrancy
    guard in :meth:`Contract.evaluate` exists precisely to keep this
    chain unbroken).  Object-level (registered contracts only): after
    the run no evaluation is still marked in-flight and the current
    region matches the last recorded transition.
    """

    name = "contract"
    layers = ("quo",)
    kinds = frozenset(("region.transition",))

    def attach(self, world: World) -> None:
        super().attach(world)
        self._last_region: Dict[str, Optional[str]] = {}

    def on_event(self, record: TraceRecord) -> None:
        fields = record.fields or {}
        contract = fields.get("contract")
        from_region = fields.get("from_region")
        to_region = fields.get("to_region")
        if contract in self._last_region:
            expected = self._last_region[contract]
            if not from_region == expected:
                self.fail(
                    "transition chain broken (nested or lost evaluation)",
                    contract=contract, from_region=from_region,
                    expected=expected, to_region=to_region,
                )
        if not from_region != to_region:
            self.fail(
                "self-transition recorded",
                contract=contract, region=to_region,
            )
        self._last_region[contract] = to_region

    def final_check(self) -> None:
        for contract in self.world.contracts:
            self.require(
                not contract._evaluating,
                "contract still mid-evaluation at teardown",
                contract=contract.name,
            )
            if contract.transitions:
                last = contract.transitions[-1].to_region
                self.require(
                    contract.current_region == last,
                    "current region disagrees with the transition log",
                    contract=contract.name,
                    current=contract.current_region, logged=last,
                )
            if contract.name in self._last_region:
                self.require(
                    self._last_region[contract.name]
                    == contract.current_region,
                    "trace stream disagrees with the contract object",
                    contract=contract.name,
                    traced=self._last_region[contract.name],
                    current=contract.current_region,
                )


class ThreadStateChecker(InvariantChecker):
    """Scheduler structural sanity: one CPU per running thread, no
    dead thread dispatchable.

    Verified on every dispatch and kill (and at teardown):

    * a CPU's current thread is in ``RUNNING`` state;
    * no thread is current on two CPUs;
    * no non-current thread claims ``RUNNING``;
    * dead threads hold no queued work, no ready episode, and are
      never current — so a stale lazy-heap entry can never get one
      dispatched.
    """

    name = "thread-state"
    layers = ("os",)
    kinds = frozenset(("cpu.dispatch", "thread.kill"))

    def _check_all(self) -> None:
        running_on: Dict[int, str] = {}
        for cpu in self.world.cpus():
            current = cpu._current
            if current is not None:
                if current.state is not RUNNING:
                    self.fail(
                        "current thread is not in RUNNING state",
                        cpu=cpu.name, thread=current.name,
                        state=current.state._value_,
                    )
                if current.tid in running_on:
                    self.fail(
                        "thread current on two CPUs",
                        thread=current.name, first=running_on[current.tid],
                        second=cpu.name,
                    )
                running_on[current.tid] = cpu.name
            for thread in cpu._threads:
                if thread.state is RUNNING:
                    if thread is not current:
                        self.fail(
                            "RUNNING thread is not the CPU's current thread",
                            cpu=cpu.name, thread=thread.name,
                        )
                if thread.state is DEAD:
                    if thread is current:
                        self.fail(
                            "dead thread holds the CPU",
                            cpu=cpu.name, thread=thread.name,
                        )
                    if cpu._queues[thread.tid]:
                        self.fail(
                            "dead thread still has queued work",
                            cpu=cpu.name, thread=thread.name,
                            pending=len(cpu._queues[thread.tid]),
                        )
                    if thread.tid in cpu._ready_order:
                        self.fail(
                            "dead thread still holds a ready episode",
                            cpu=cpu.name, thread=thread.name,
                        )

    def on_event(self, record: TraceRecord) -> None:
        self._check_all()

    def final_check(self) -> None:
        self._check_all()


class FluidConservationChecker(InvariantChecker):
    """The fluid engine's byte ledgers balance and its shares are sane.

    Laws, re-verified at every fluid epoch record and at teardown:

    * per flow (the ledgers of one cohort member): ``offered == served
      + lost`` (bytes, within relative slack), every ledger
      non-negative, ``served_share`` in [0, 1], the offered rate never
      above the flow's nominal rate, and at least one member — a
      memberless cohort would keep ledgers no link ever books;
    * per link: the same byte conservation, class shares in [0, 1],
      the served fluid aggregate within link capacity, and the hybrid
      residual exported to packet transmitters strictly positive
      (a zero residual would wedge an attached interface).
    """

    name = "fluid-conservation"
    layers = ("fluid",)
    kinds = frozenset(("epoch",))

    @staticmethod
    def _balanced(offered: float, served: float, lost: float) -> bool:
        slack = max(1e-6, 1e-9 * offered)
        return abs(offered - (served + lost)) <= slack

    def _check_all(self) -> None:
        assert self.world is not None
        engine = self.world.fluid
        if engine is None:
            return
        for flow in engine.flows():
            if not flow.members >= 1:
                self.fail(
                    "fluid flow stands for no stream", flow=flow.name,
                    members=flow.members,
                )
            if not min(flow.offered_bytes, flow.served_bytes,
                       flow.lost_bytes, flow.shed_bytes) >= 0.0:
                self.fail(
                    "negative fluid flow ledger", flow=flow.name,
                    offered=flow.offered_bytes, served=flow.served_bytes,
                    lost=flow.lost_bytes, shed=flow.shed_bytes,
                )
            if not self._balanced(flow.offered_bytes, flow.served_bytes,
                                  flow.lost_bytes):
                self.fail(
                    "fluid flow bytes not conserved", flow=flow.name,
                    offered=flow.offered_bytes, served=flow.served_bytes,
                    lost=flow.lost_bytes,
                )
            if not -EPSILON <= flow.served_share <= 1.0 + EPSILON:
                self.fail(
                    "fluid flow share outside [0, 1]", flow=flow.name,
                    share=flow.served_share,
                )
            if not flow.rate_bps <= flow.nominal_bps + EPSILON:
                self.fail(
                    "fluid flow offering above its nominal rate",
                    flow=flow.name, rate=flow.rate_bps,
                    nominal=flow.nominal_bps,
                )
        for link in engine.links():
            if not min(link.offered_bytes, link.served_bytes,
                       link.lost_bytes) >= 0.0:
                self.fail(
                    "negative fluid link ledger", link=link.name,
                    offered=link.offered_bytes, served=link.served_bytes,
                    lost=link.lost_bytes,
                )
            if not self._balanced(link.offered_bytes, link.served_bytes,
                                  link.lost_bytes):
                self.fail(
                    "fluid link bytes not conserved", link=link.name,
                    offered=link.offered_bytes, served=link.served_bytes,
                    lost=link.lost_bytes,
                )
            for label, share in (("reserved", link.reserved_share),
                                 ("best-effort", link.be_share)):
                if not -EPSILON <= share <= 1.0 + EPSILON:
                    self.fail(
                        f"fluid link {label} share outside [0, 1]",
                        link=link.name, share=share,
                    )
            capacity = link.capacity_bps
            if not link.fluid_served_bps <= capacity * (1.0 + 1e-9):
                self.fail(
                    "fluid aggregate served above link capacity",
                    link=link.name, served=link.fluid_served_bps,
                    capacity=capacity,
                )
            if not link.packet_residual_bps > 0.0:
                self.fail(
                    "hybrid packet residual is not positive",
                    link=link.name, residual=link.packet_residual_bps,
                )

    def on_event(self, record: TraceRecord) -> None:
        self._check_all()

    def final_check(self) -> None:
        self._check_all()


class RoutingChecker(InvariantChecker):
    """Forwarding tables stay sane through topology changes.

    * On every ``spf.install`` record the emitting router's table is
      verified: each egress interface belongs to that router and its
      link is up (the engine must never install a route onto a link it
      just learned is dead).
    * At teardown, when the network is quiescent, the composed tables
      are walked per destination: following next hops must never
      revisit a router (no forwarding loops).  Dead ends are legal —
      an unreachable destination drops packets through the accounted
      ``unroutable`` path — but cycles would blackhole traffic with no
      accounted fate.
    * When a live :class:`~repro.net.routing.LinkStateRouting` engine
      is registered on the world, each node's installed table is also
      recomputed from its *own* LSDB and required to match — the
      distributed state and the forwarding plane may not drift apart.

    The teardown walks only run when the protocol has converged (all
    LSDBs equal, no SPF timer pending): a run that ends mid-flood may
    legally hold transient micro-loops, exactly like a real IGP.
    """

    name = "routing"
    layers = ("net",)
    kinds = frozenset(("spf.install",))

    def _check_installed(self, router) -> None:
        for dst, egress in router.routes.items():
            if egress.owner is not router:
                self.fail(
                    "route egress belongs to another device",
                    router=router.name, dst=dst, iface=egress.label,
                )
            if not (egress.link is not None and egress.link.up):
                self.fail(
                    "route installed onto a dead link",
                    router=router.name, dst=dst, iface=egress.label,
                )

    def on_event(self, record: TraceRecord) -> None:
        network = self.world.network if self.world is not None else None
        if network is None:
            return
        name = (record.fields or {}).get("router")
        if name is None:
            return
        self._check_installed(network.device(name))

    # ------------------------------------------------------------------
    def _converged(self, routing) -> bool:
        """All LSDBs identical (by origin -> seq) and no SPF pending."""
        reference = None
        for node in routing.nodes.values():
            if node.spf_pending:
                return False
            seqs = {origin: lsa.seq for origin, lsa in node.lsdb.items()}
            if reference is None:
                reference = seqs
            elif seqs != reference:
                return False
        return True

    def _walk_tables(self, network) -> None:
        limit = len(network.routers) + 2
        for router in network.routers:
            for dst, egress in router.routes.items():
                seen = {router.name}
                iface = egress
                hops = 0
                while iface is not None:
                    link = iface.link
                    if link is None or not link.up:
                        break  # parks in a queue; not a loop
                    nxt = iface.peer.owner
                    if not isinstance(nxt, Router):
                        break  # delivered (or undeliverable) at a NIC
                    if nxt.name in seen:
                        self.fail(
                            "forwarding loop",
                            dst=dst, start=router.name, at=nxt.name,
                            cycle=sorted(seen),
                        )
                    seen.add(nxt.name)
                    iface = nxt.routes.get(dst)
                    hops += 1
                    if hops > limit:  # pragma: no cover - defensive
                        self.fail("forwarding walk did not terminate",
                                  dst=dst, start=router.name)

    def _check_lsdb_consistency(self, network, routing) -> None:
        # Converged LSDBs hold the same LSA objects: one graph serves
        # every node (keyed by content, so a node that differs despite
        # equal seqs is still checked against its own).
        graphs = {}
        for name in sorted(routing.nodes):
            node = routing.nodes[name]
            content = frozenset(node.lsdb.values())
            if content not in graphs:
                graphs[content] = two_way_adjacency(node.lsdb)
            expected = spf_routes(network, name,
                                  spf_search(graphs[content], name))
            self.require(
                node.router.routes == expected,
                "installed routes drifted from the node's own LSDB",
                router=name,
                installed=sorted(node.router.routes),
                expected=sorted(expected),
            )

    def final_check(self) -> None:
        network = self.world.network if self.world is not None else None
        if network is None:
            return
        routing = getattr(self.world, "routing", None)
        if routing is None:
            self._walk_tables(network)
            return
        if self._converged(routing):
            self._walk_tables(network)
            self._check_lsdb_consistency(network, routing)


class PubSubChecker(InvariantChecker):
    """The pub-sub layer's delivery and resource laws.

    Runtime (per ``pubsub`` trace record):

    * liveliness transitions alternate — a writer may not be declared
      lost twice without a revival in between (the same-tick lease
      expiry fix's invariant, kept honest forever);
    * an ``ownership.failover`` record's new owner must be a live
      registered writer of that topic (or ``None`` when every
      candidate is dead); an owner elected for a partition the broker
      cannot reach must instead be a registered writer whose host sits
      inside that partition (lease state is unknowable across the
      cut).

    Teardown (when a :class:`~repro.pubsub.broker.Broker` is
    registered on the world):

    * **history bound** — no reader's cache ever held more samples
      than its declared depth (KEEP_LAST evicts, KEEP_ALL rejects;
      neither may silently grow);
    * **at-most-once** — a reader never delivered the same (writer,
      seq) twice, and per match delivered <= sent (reliable endpoints
      may still be draining at the horizon, but can never *exceed*
      what the writer sent);
    * **no unmatched delivery** — every writer a reader delivered
      from appears in its match table, and the reader's arrival
      counters close exactly (received = delivered + duplicates +
      stale + downsampled + filtered + unmatched);
    * **dedup bound** — once heartbeat trims are flowing, a reader's
      per-writer dedup tail stays O(window) (the state-bounding fix's
      law: no more unbounded seq sets);
    * **ownership** — the recorded owner of every topic is the
      strongest live EXCLUSIVE writer (name-ordered on ties), and
      every EXCLUSIVE reader agrees with the owner elected for *its*
      reachability partition (which is the broker's view whenever the
      reader can reach the broker).
    """

    name = "pubsub"
    layers = ("pubsub",)
    kinds = frozenset(("liveliness.lost", "liveliness.revived",
                       "ownership.failover"))

    def attach(self, world: World) -> None:
        super().attach(world)
        self._last_liveliness: Dict[str, str] = {}

    def _broker(self):
        return getattr(self.world, "pubsub", None) if self.world else None

    def on_event(self, record: TraceRecord) -> None:
        fields = record.fields or {}
        if record.kind != "ownership.failover":
            # liveliness.lost / liveliness.revived
            writer = fields.get("writer")
            state = record.kind.split(".")[1]
            if not self._last_liveliness.get(writer) != state:
                self.fail(
                    "liveliness flapped: repeated transition without "
                    "the opposite in between",
                    writer=writer, transition=state,
                )
            self._last_liveliness[writer] = state
        else:
            broker = self._broker()
            new = fields.get("new")
            if broker is None or new is None:
                return
            writer = broker.writers.get(new)
            ok = (writer is not None
                  and writer.topic.name == fields.get("topic"))
            if ok:
                parts = (broker.partitions()
                         if hasattr(broker, "partitions") else None)
                pid = fields.get("partition")
                home = (parts.get(broker.host_name)
                        if parts is not None else None)
                if parts is not None and pid is not None and pid != home:
                    # Elected across a partition cut: the broker's
                    # lease monitors are not authoritative there — the
                    # writer's host must be reachable in that
                    # partition instead.
                    ok = parts.get(writer.host_name) == pid
                else:
                    ok = broker.writer_alive(new)
            if not ok:
                self.fail(
                    "ownership handed to a dead, unknown or unreachable "
                    "writer",
                    topic=fields.get("topic"), new=new,
                )

    def final_check(self) -> None:
        broker = self._broker()
        if broker is None:
            return
        for reader in broker.readers.values():
            history = reader.history
            self.require(
                history.max_held <= history.depth,
                "history cache exceeded its declared depth",
                reader=reader.name, held=history.max_held,
                depth=history.depth,
            )
            self.require(
                reader.duplicates == 0,
                "a (writer, seq) sample was delivered twice",
                reader=reader.name, duplicates=reader.duplicates,
            )
            delivered_per_writer = {
                writer: ledger.delivered
                for writer, ledger in reader._seen.items()
            }
            for writer_name, count in delivered_per_writer.items():
                match = reader.matched.get(writer_name)
                self.require(
                    match is not None,
                    "samples delivered from a writer the reader never "
                    "matched",
                    reader=reader.name, writer=writer_name,
                )
                if match is not None:
                    self.require(
                        count <= match.sent,
                        "reader delivered more samples than the match "
                        "sent",
                        reader=reader.name, writer=writer_name,
                        delivered=count, sent=match.sent,
                    )
            for writer_name, ledger in reader._seen.items():
                if ledger.trims > 0:
                    self.require(
                        len(ledger) <= 2 * DEDUP_WINDOW,
                        "dedup tail grew past the trimmed window bound",
                        reader=reader.name, writer=writer_name,
                        tail=len(ledger), window=DEDUP_WINDOW,
                    )
            self.require(
                reader.delivered == sum(delivered_per_writer.values()),
                "delivered count drifted from the per-writer ledgers",
                reader=reader.name, delivered=reader.delivered,
            )
            self.require(
                reader.samples_received == (
                    reader.delivered + reader.duplicates
                    + reader.stale_drops + reader.downsampled
                    + reader.ownership_filtered + reader.from_unmatched),
                "reader arrival accounting does not close",
                reader=reader.name, received=reader.samples_received,
            )

        parts = (broker.partitions()
                 if hasattr(broker, "partitions") else None)
        home = (parts.get(broker.host_name)
                if parts is not None else None)
        for topic_name, owner in broker.owners.items():
            candidates = [
                w for w in broker.writers.values()
                if w.topic.name == topic_name
                and w.qos.ownership is OwnershipKind.EXCLUSIVE
                and broker.writer_alive(w.name)
            ]
            expected = (min(candidates,
                            key=lambda w: (-w.qos.strength, w.name)).name
                        if candidates else None)
            self.require(
                owner == expected,
                "recorded owner is not the strongest live writer",
                topic=topic_name, owner=owner, expected=expected,
            )
            for reader in broker.readers.values():
                if (reader.topic.name != topic_name
                        or reader.qos.ownership
                        is not OwnershipKind.EXCLUSIVE):
                    continue
                pid = (parts.get(reader.host_name)
                       if parts is not None else None)
                if pid == home:
                    expected_view = owner
                else:
                    # The reader is currently cut off from the broker:
                    # it follows the owner elected for its own
                    # partition, not the broker's lease-driven view.
                    expected_view = broker.partition_owners.get(
                        (topic_name, pid), owner)
                self.require(
                    reader.owner == expected_view,
                    "reader's owner view drifted from its partition's "
                    "election",
                    reader=reader.name, reader_owner=reader.owner,
                    expected=expected_view,
                )


def default_suite() -> CheckSuite:
    """All built-in monitors, ready to ``install`` on a world."""
    return CheckSuite([
        TimeMonotonicityChecker(),
        QdiscAccountingChecker(),
        TokenBucketChecker(),
        ReserveLedgerChecker(),
        PacketConservationChecker(),
        ContractChecker(),
        ThreadStateChecker(),
        FluidConservationChecker(),
        RoutingChecker(),
        PubSubChecker(),
    ])
