"""Differential tests for the tracer's ``(layer, kind)`` dispatch table.

``Tracer.record`` hands a record to the handlers one lazily built table
names for its pair, checkers' ``on_event`` included, and the monitors'
bodies no longer test the kind themselves.  So a wrong table can hide a
record from a checker without any failure.  Every test here runs one
record stream through two dispatchers and requires the same outcome:

* the table under test, reached through ``CheckSuite.emit`` (replay of
  built records) or through a live ``Tracer.record``;
* :func:`reference_dispatch`, which keeps no table: like the suite
  before any table existed, it offers every record to every checker
  subscribed to the record's layer, one by one, and the checker takes
  it if it declared the kind.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Kernel
from repro.obs import Tracer
from repro.oskernel import Host, SimThread, ThreadState
from repro.check import (
    CheckSuite,
    InvariantChecker,
    InvariantViolation,
    QdiscAccountingChecker,
    TokenBucketChecker,
    World,
    default_suite,
)
from tests.check.test_invariants import (
    Bag,
    bare_world,
    fifo_world,
    grq_world,
    rec,
)


# ----------------------------------------------------------------------
# The two dispatchers
# ----------------------------------------------------------------------
def reference_dispatch(checkers, records):
    """Offer every record to every subscribed checker; no table.

    Returns the number of records whose layer had a subscriber (what
    ``CheckSuite.events_dispatched`` counts) and, per checker name, the
    records handed to it in order.
    """
    dispatched = 0
    handed = {checker.name: [] for checker in checkers}
    for record in records:
        by_layer = [c for c in checkers
                    if c.layers is not None and record.layer in c.layers]
        every_layer = [c for c in checkers if c.layers is None]
        if by_layer:
            dispatched += 1
        for checker in by_layer + every_layer:
            if checker.kinds is None or record.kind in checker.kinds:
                handed[checker.name].append(record)
                checker.on_event(record)
    return dispatched, handed


def run_reference(world, records):
    checkers = default_suite().checkers
    for checker in checkers:
        checker.attach(world)
    dispatched, handed = reference_dispatch(checkers, records)
    return checkers, dispatched, {
        name: len(seen) for name, seen in handed.items()}


def run_suite(world, records):
    suite = default_suite().install(world)
    try:
        for record in records:
            suite.emit(record)
    finally:
        suite.uninstall()
    return suite.checkers, suite.events_dispatched, suite.summary()


def run_live(world, records):
    """Each record re-emitted through ``Tracer.record`` at its own time."""
    suite = default_suite().install(world)
    tracer = world.kernel.tracer
    try:
        for r in records:
            world.kernel.now = r.time  # the clock the record was stamped by
            tracer.record(r.layer, r.kind, r.phase, r.span, r.flow,
                          r.request, r.fields)
    finally:
        suite.uninstall()
    return suite.checkers, suite.events_dispatched, suite.summary()


def rebooked(world, records):
    """``records``, with the world's drop books moving as they did live.

    The recorded world is frozen at end of run, so every replayed
    ``hop.drop`` would read as "drop not booked".  The books are rewound
    by every recorded drop now (before a dispatcher attaches), and each
    drop is re-booked just before its record is handed over; a full
    replay leaves the world as it found it.
    """
    qdiscs = world.qdiscs()
    for record in records:
        book_drop(qdiscs, record, -1)

    def replay():
        for record in records:
            book_drop(qdiscs, record, +1)
            yield record

    return replay()


def book_drop(qdiscs, record, by):
    """Move a ``hop.drop`` record's queue books by ``by`` drops."""
    if record.layer == "net" and record.kind == "hop.drop":
        qdisc = qdiscs[record.fields["iface"]]
        qdisc.dropped += by
        qdisc.drops_by_flow[record.flow] = (
            qdisc.drops_by_flow.get(record.flow, 0) + by)


class BookedOnReplay(list):
    """A canary's records, each drop booked just before its record is
    handed over, as the queue books it just before the interface emits
    ``hop.drop``.  Booked when the world is built, it would be on the
    books before the dispatcher attaches and read as "not booked"."""

    def __init__(self, world, records):
        super().__init__(records)
        self.qdiscs = world.qdiscs()

    def __iter__(self):
        for record in super().__iter__():
            book_drop(self.qdiscs, record, +1)
            yield record


#: Per-checker state that on_event builds up (absent on most monitors).
STATE_ATTRS = ("_state", "_flow", "tracked", "_last_region",
               "_last_liveliness", "_drops_expected")


def state_of(checkers):
    return {
        checker.name: {
            attr: copy.copy(getattr(checker, attr))
            for attr in STATE_ATTRS if hasattr(checker, attr)
        }
        for checker in checkers
    }


# ----------------------------------------------------------------------
# Recorded traces of real checked runs
# ----------------------------------------------------------------------
class Recorder(InvariantChecker):
    """Keeps every record of every layer (the ``kinds = None`` default)."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.records = []

    def on_event(self, record):
        self.records.append(record)


def watched_live(run):
    """Run ``run(checks, tracer)`` under ``default_suite()`` plus a
    :class:`Recorder`, beside a plain sink on the run's own tracer.

    Each checker's ``on_event`` is wrapped before install, so the table
    holds the wrapper and ``handed`` logs, per checker name, exactly
    what the live ``Tracer.record`` handed it.  Returns the recorded
    stream, the handed log, the suite, the tracer and the world the
    suite was installed over (its uninstall lets go of it).
    """
    recorder = Recorder()
    suite = CheckSuite(default_suite().checkers + [recorder])
    handed = {checker.name: [] for checker in suite.checkers}
    for checker in suite.checkers:
        def logged(record, log=handed[checker.name], law=checker.on_event):
            log.append(record)
            law(record)
        checker.on_event = logged
    watched = []
    install = suite.install

    def recording(world, *rest):
        watched.append(world)
        return install(world, *rest)

    suite.install = recording
    tracer = Tracer(sinks=[RecordSink()])
    run(suite, tracer)
    (world,) = watched
    return recorder.records, handed, suite, tracer, world


class RecordSink:
    """A plain sink (no ``route``): the allow-list applies to it."""

    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)

    def close(self):
        pass


@pytest.fixture(scope="module")
def capacity_run():
    """The checked fig 9 N=8 ``adaptive`` arm, watched live."""
    from repro.experiments.capacity_exp import all_arms, run_capacity_experiment
    arm = next(a for a in all_arms() if a.name == "adaptive")
    return watched_live(lambda checks, tracer: run_capacity_experiment(
        arm, streams=8, duration=2.0, seed=7, checks=checks, tracer=tracer))


@pytest.fixture(scope="module")
def pubsub_run():
    """The fig 12 ``ownership`` smoke arm (leases expire and ownership
    fails over, so every pub-sub kind the checker declares is in the
    stream), watched live."""
    from repro.experiments.pubsub_exp import PubSubArm, run_pubsub_experiment
    return watched_live(lambda checks, tracer: run_pubsub_experiment(
        PubSubArm("ownership", ownership=True, faults=True),
        subscribers=64, duration=3.0, seed=3, checks=checks, tracer=tracer))


@pytest.fixture(scope="module")
def capacity_trace(capacity_run):
    """Records + world of the checked fig 9 N=8 ``adaptive`` arm."""
    records, _, _, _, world = capacity_run
    return records, world


@pytest.fixture(scope="module")
def pubsub_trace(pubsub_run):
    """Records of the fig 12 ``ownership`` smoke arm."""
    return pubsub_run[0]


def test_recorded_capacity_arm_replays_identically(capacity_trace):
    records, world = capacity_trace
    assert len(records) > 10000
    assert any(r.kind == "hop.drop" for r in records)
    ref_checkers, ref_dispatched, ref_seen = run_reference(
        world, rebooked(world, records))
    new_checkers, new_dispatched, new_seen = run_suite(
        world, rebooked(world, records))
    assert state_of(new_checkers) == state_of(ref_checkers)
    assert new_dispatched == ref_dispatched > 0
    assert new_seen == ref_seen
    # The recorder declared every kind, so the kernel built a dispatch
    # record per event; the time law is handed the clock's regressions
    # only, and a healthy run has none.
    assert sum((r.layer, r.kind) == ("sim", "event.dispatch")
               for r in records) > 0
    assert new_seen["time-monotonic"] == sum(
        (r.layer, r.kind) == ("sim", "clock.regress") for r in records) == 0
    state = state_of(new_checkers)
    assert state["packet-conservation"]["tracked"] > 0
    assert state["contract"]["_last_region"]


def test_recorded_pubsub_arm_replays_identically(pubsub_trace):
    records = pubsub_trace
    kinds = {r.kind for r in records if r.layer == "pubsub"}
    assert {"liveliness.lost", "ownership.failover"} <= kinds
    # Replayed without the broker (its end-of-run leases are not the
    # mid-run ones): the trace-only liveliness law still runs.
    ref_checkers, ref_dispatched, ref_seen = run_reference(
        bare_world(), records)
    new_checkers, new_dispatched, new_seen = run_suite(bare_world(), records)
    assert state_of(new_checkers) == state_of(ref_checkers)
    assert new_dispatched == ref_dispatched > 0
    assert new_seen == ref_seen
    assert state_of(new_checkers)["pubsub"]["_last_liveliness"]


@pytest.mark.parametrize("live", ["capacity_run", "pubsub_run"])
def test_a_live_run_hands_each_checker_what_the_reference_derives(
        live, request):
    records, handed, suite, tracer, _ = request.getfixturevalue(live)
    assert suite not in tracer.sinks  # the testbed uninstalled it
    assert suite.world is None
    spies = [Spy(c.name, c.layers, c.kinds) for c in suite.checkers]
    dispatched, expected = reference_dispatch(spies, records)
    for name, seen in expected.items():
        assert handed[name] == seen, name
    assert suite.summary() == {
        name: len(seen) for name, seen in expected.items()}
    assert suite.events_dispatched == dispatched > 0
    # The plain sink got every record; those emitted while the suite
    # was installed are the recorder's, in the same order.
    (sink,) = tracer.sinks
    assert tracer.records_emitted == len(sink.records)
    start = next(i for i, r in enumerate(sink.records) if r is records[0])
    assert sink.records[start:start + len(records)] == records
    assert handed["recorder"] == records


#: The ``hop.*`` kinds emitted after an interface moved its egress
#: books (a queue's counters, and a policing bucket on ``enqueue``).
BOOK_MOVING = frozenset(("hop.enqueue", "hop.drop", "hop.dequeue"))
#: The ``hop.*`` kinds that name a port whose egress books did not move.
BOOKS_STILL = frozenset(("hop.rx", "hop.loss"))


def test_every_hop_record_names_a_known_qdisc(capacity_trace):
    """``QdiscAccountingChecker`` and ``TokenBucketChecker`` skip a
    record whose ``iface`` they cannot look up; the trace sites and
    ``World.qdiscs()`` must therefore agree on the label.  Every
    ``hop.*`` kind there is must be sorted into book-moving (declared by
    the qdisc law) or not, so a new kind fails here until it is."""
    records, world = capacity_trace
    hops = [r for r in records
            if r.layer == "net" and r.kind.startswith("hop.")]
    assert len(hops) > 1000
    known = world.qdiscs()
    assert {r.fields["iface"] for r in hops} <= set(known)
    assert {r.kind for r in hops} <= BOOK_MOVING | BOOKS_STILL
    assert BOOK_MOVING <= {r.kind for r in hops}
    assert QdiscAccountingChecker.kinds == BOOK_MOVING
    assert TokenBucketChecker.kinds == {"hop.enqueue", "hop.drop"}


# ----------------------------------------------------------------------
# Hand-corrupted canaries (the record-driven ones of test_invariants)
# ----------------------------------------------------------------------
def _corrupt_length_books():
    _, _, world = fifo_world()
    label, qdisc = next(iter(world.qdiscs().items()))
    qdisc.enqueued += 1
    return world, [rec(0.0, "net", "hop.enqueue", flow="f", iface=label,
                       packet=1)]


def _unbooked_drop():
    # The interface reports a rejection the queue's books never saw.
    _, _, world = grq_world()
    label = next(iter(world.qdiscs()))
    return world, [rec(0.0, "net", "hop.drop", flow="f", iface=label,
                       packet=1)]


def _token_bucket_overflow():
    _, _, world = grq_world()
    label, qdisc = next(iter(world.qdiscs().items()))
    qdisc.install_reservation("a:1->b:2", rate_bps=1e5, depth_bytes=1000)
    qdisc._buckets["a:1->b:2"]._tokens = 1064.0
    return world, [rec(0.0, "net", "hop.enqueue", flow="a:1->b:2",
                       iface=label, packet=1)]


def _token_bucket_overflow_on_drop():
    # A conforming packet charges its bucket and is then dropped on
    # reserved-lane overflow: the bucket moved at a ``hop.drop``.
    _, _, world = grq_world()
    label, qdisc = next(iter(world.qdiscs().items()))
    qdisc.install_reservation("a:1->b:2", rate_bps=1e5, depth_bytes=1000)
    qdisc._buckets["a:1->b:2"]._tokens = -64.0
    return world, BookedOnReplay(world, [
        rec(0.0, "net", "hop.drop", flow="a:1->b:2", iface=label,
            packet=1)])


def _reserve_world():
    kernel = Kernel()
    host = Host(kernel, "h")
    return host, World(kernel, hosts=[host])


def _budget_escape():
    host, world = _reserve_world()
    thread = SimThread(host.cpu, priority=1)
    reserve = host.reserve_manager.request(thread, compute=0.4, period=1.0)
    reserve.budget_remaining = -0.25
    return world, [rec(0.0, "os", "reserve.deplete")]


def _non_positive_rsvp_rate():
    world = bare_world()
    iface = Bag(label="router.router->dst",
                link=Bag(bandwidth_bps=1e6, nominal_bandwidth_bps=1e6))
    agent = Bag(utilization_bound=0.9, _reserved={iface: {"f:1->d:2": 0.0}})
    world.rsvp_agents = lambda: [agent]
    return world, [rec(0.0, "net", "rsvp.release")]


def _dequeue_of_unqueued_packet():
    return bare_world(), [rec(0.0, "net", "hop.dequeue", flow="f", packet=7)]


def _double_delivery():
    return bare_world(), [
        rec(0.0, "net", "nic.deliver", flow="f", packet=3),
        rec(0.1, "net", "nic.deliver", flow="f", packet=3)]


def _forwarding_a_wire_packet():
    return bare_world(), [
        rec(0.0, "net", "hop.enqueue", flow="f", packet=5),
        rec(0.1, "net", "hop.dequeue", flow="f", packet=5),
        rec(0.1, "net", "route.forward", flow="f", packet=5)]


def _broken_contract_chain():
    return bare_world(), [
        rec(0.0, "quo", "region.transition", contract="c",
            from_region=None, to_region="a"),
        rec(1.0, "quo", "region.transition", contract="c",
            from_region="b", to_region="c")]


def _self_transition():
    return bare_world(), [rec(0.0, "quo", "region.transition", contract="c",
                              from_region="a", to_region="a")]


def _dead_thread_with_queued_work():
    host, world = _reserve_world()
    blocker = SimThread(host.cpu, priority=9, name="blocker")
    victim = SimThread(host.cpu, priority=1, name="victim")
    host.cpu.submit(blocker, 10.0)
    host.cpu.submit(victim, 1.0)
    victim.state = ThreadState.DEAD
    return world, [rec(0.0, "os", "thread.kill")]


def _liveliness_flap():
    return bare_world(), [
        rec(1.0, "pubsub", "liveliness.lost", writer="w"),
        rec(1.0, "pubsub", "liveliness.lost", writer="w")]


CANARIES = [
    (_corrupt_length_books, "qdisc-accounting", "length disagrees"),
    (_unbooked_drop, "qdisc-accounting", "drop not booked"),
    (_token_bucket_overflow, "token-bucket", "escaped"),
    (_token_bucket_overflow_on_drop, "token-bucket", "escaped"),
    (_budget_escape, "reserve-ledger", "escaped [0, C]"),
    (_non_positive_rsvp_rate, "reserve-ledger", "non-positive"),
    (_dequeue_of_unqueued_packet, "packet-conservation", "illegal packet"),
    (_double_delivery, "packet-conservation", "resurrected"),
    (_forwarding_a_wire_packet, "packet-conservation",
     "not held by a device"),
    (_broken_contract_chain, "contract", "chain broken"),
    (_self_transition, "contract", "self-transition"),
    (_dead_thread_with_queued_work, "thread-state", "queued work"),
    (_liveliness_flap, "pubsub", "liveliness flapped"),
]


@pytest.mark.parametrize("build, checker, fragment", CANARIES,
                         ids=[c[0].__name__.lstrip("_") for c in CANARIES])
def test_canary_raises_the_same_violation_through_both(build, checker,
                                                       fragment):
    violations = []
    for run in (run_reference, run_suite):
        world, records = build()  # corrupted afresh for each dispatcher
        with pytest.raises(InvariantViolation) as err:
            run(world, records)
        violations.append(err.value)
    reference, new = violations
    assert new.checker == reference.checker == checker
    assert new.message == reference.message
    assert fragment in new.message
    assert sorted(new.context) == sorted(reference.context)


@pytest.mark.parametrize("build, checker, fragment", CANARIES,
                         ids=[c[0].__name__.lstrip("_") for c in CANARIES])
def test_canary_raises_the_same_violation_through_a_live_tracer(
        build, checker, fragment):
    violations = []
    for run in (run_reference, run_live):
        world, records = build()
        with pytest.raises(InvariantViolation) as err:
            run(world, records)
        violations.append(err.value)
    reference, live = violations
    assert (live.checker, live.message) == (reference.checker,
                                            reference.message)
    assert live.checker == checker and fragment in live.message
    # Values may hold ids numbered per process (a reserve's), so only
    # the keys compare; ``time`` is the clock the live run set.
    assert sorted(live.context) == sorted(reference.context)
    assert live.context["time"] == records[-1].time


# ----------------------------------------------------------------------
# Property: the table never widens or narrows a checker's declaration
# ----------------------------------------------------------------------
class Spy(InvariantChecker):
    def __init__(self, name, layers, kinds, log=None):
        super().__init__()
        self.name = name
        self.layers = layers
        self.kinds = kinds
        self.handed = []
        self.log = log

    def on_event(self, record):
        self.handed.append(record)
        if self.log is not None:
            self.log.append((self.name, record))


class OrderSink(RecordSink):
    """A plain sink writing ``(name, record)`` to a log shared with spies."""

    def __init__(self, name, log):
        super().__init__()
        self.name = name
        self.log = log

    def emit(self, record):
        self.log.append((self.name, record))


LAYERS = ("sim", "os", "net", "quo", "fluid", "pubsub", "orb", "av")
DECLARED = sorted(set().union(*(
    checker.kinds for checker in default_suite().checkers
    if checker.kinds is not None)))
UNDECLARED = ["frame", "hop.tx", "work", "cpu.preempt", "epoch.end"]
KINDS = DECLARED + UNDECLARED

spy_declarations = st.lists(
    st.tuples(
        st.none() | st.lists(st.sampled_from(LAYERS), min_size=1,
                             max_size=3, unique=True).map(tuple),
        st.none() | st.frozensets(st.sampled_from(KINDS), max_size=4),
    ),
    max_size=4,
)
record_streams = st.lists(
    st.tuples(st.sampled_from(LAYERS), st.sampled_from(KINDS)), max_size=60)
allow_lists = st.none() | st.frozensets(st.sampled_from(LAYERS), max_size=4)


@settings(max_examples=150, deadline=None)
@given(extra=spy_declarations, stream=record_streams, layers=allow_lists,
       before=st.integers(0, 2), after=st.integers(0, 2),
       cut=st.integers(0, 60))
def test_no_checker_is_handed_a_kind_it_did_not_declare(
        extra, stream, layers, before, after, cut):
    """Live emission through a tracer whose plain sinks sit before and
    after the suite, under a random allow-list; the suite is
    uninstalled after ``cut`` records.  Per record the handlers run in
    sink order, the allow-list narrows the plain sinks only, and the
    checkers (while installed) get exactly what they declared."""
    log = []
    # The built-in monitors' own declarations, as spies, plus random ones.
    spies = [Spy(c.name, c.layers, c.kinds, log)
             for c in default_suite().checkers]
    spies += [Spy(f"extra{i}", layers_, kinds, log)
              for i, (layers_, kinds) in enumerate(extra)]
    world = bare_world()
    tracer = Tracer(sinks=[OrderSink(f"before{i}", log)
                           for i in range(before)],
                    layers=layers).attach(world.kernel)
    suite = CheckSuite(spies).install(world)
    for i in range(after):
        tracer.add_sink(OrderSink(f"after{i}", log))
    for seq, (layer, kind) in enumerate(stream):
        if seq == cut:
            suite.uninstall()
        tracer.instant(layer, kind, fields={"seq": seq})
    suite.uninstall()

    def admitted(layer):
        return layers is None or layer in layers

    def wants(spy, layer, kind):
        return ((spy.layers is None or layer in spy.layers)
                and (spy.kinds is None or kind in spy.kinds))

    expected, watched = [], stream[:cut]
    for seq, (layer, kind) in enumerate(stream):
        names = []
        if admitted(layer):
            names += [f"before{i}" for i in range(before)]
        if seq < cut:  # the layer's subscribers, then every-layer spies
            subscribers = [s for s in spies
                           if s.layers is not None and layer in s.layers]
            every_layer = [s for s in spies if s.layers is None]
            names += [s.name for s in subscribers + every_layer
                      if wants(s, layer, kind)]
        if admitted(layer):
            names += [f"after{i}" for i in range(after)]
        expected += [(name, seq) for name in names]
    assert [(name, r.fields["seq"]) for name, r in log] == expected
    for seq in range(len(stream)):  # one record object per emission
        assert len({id(r) for _, r in log if r.fields["seq"] == seq}) <= 1

    assert suite.summary() == {
        s.name: sum(wants(s, layer, kind) for layer, kind in watched)
        for s in spies}
    assert suite.events_dispatched == sum(
        any(s.layers is not None and layer in s.layers for s in spies)
        for layer, _ in watched)
    emitted = [key for key in stream if admitted(key[0])]
    assert tracer.records_emitted == len(emitted)
    assert tracer.counts == {key: emitted.count(key) for key in emitted}
