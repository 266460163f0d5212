"""Differential tests for the suite's ``(layer, kind)`` dispatch table.

``CheckSuite.emit`` routes a record through a lazily built table, and
the monitors' ``on_event`` bodies no longer test the kind themselves.
So a wrong table can hide a record from a checker without any failure.
Every test here runs one record stream through two dispatchers and
requires the same outcome:

* the suite under test;
* :func:`reference_dispatch`, which keeps no table: like the suite
  before the table existed, it offers every record to every checker
  subscribed to the record's layer, one by one, and the checker takes
  it if it declared the kind.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Kernel
from repro.oskernel import Host, SimThread, ThreadState
from repro.check import (
    CheckSuite,
    InvariantChecker,
    InvariantViolation,
    QdiscAccountingChecker,
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

    Returns the number of records whose layer had a subscriber, which
    is what ``CheckSuite.events_dispatched`` counts.
    """
    dispatched = 0
    for record in records:
        by_layer = [c for c in checkers
                    if c.layers is not None and record.layer in c.layers]
        every_layer = [c for c in checkers if c.layers is None]
        if by_layer:
            dispatched += 1
        for checker in by_layer + every_layer:
            if checker.kinds is None or record.kind in checker.kinds:
                checker.events_seen += 1
                checker.on_event(record)
    return dispatched


def run_reference(world, records):
    checkers = default_suite().checkers
    for checker in checkers:
        checker.attach(world)
    return checkers, reference_dispatch(checkers, records)


def run_suite(world, records):
    suite = default_suite().install(world)
    try:
        for record in records:
            suite.emit(record)
    finally:
        suite.uninstall()
    return suite.checkers, suite.events_dispatched


def rebooked(world, records):
    """``records``, with the world's drop books moving as they did live.

    The recorded world is frozen at end of run, so every replayed
    ``hop.drop`` would read as "drop not booked".  The books are rewound
    by every recorded drop now (before a dispatcher attaches), and each
    drop is re-booked just before its record is handed over; a full
    replay leaves the world as it found it.
    """
    qdiscs = world.qdiscs()

    def book(record, by):
        if record.layer == "net" and record.kind == "hop.drop":
            qdisc = qdiscs[record.fields["iface"]]
            qdisc.dropped += by
            qdisc.drops_by_flow[record.flow] += by

    for record in records:
        book(record, -1)

    def replay():
        for record in records:
            book(record, +1)
            yield record

    return replay()


#: Per-checker state that on_event builds up (absent on most monitors).
STATE_ATTRS = ("events_seen", "_state", "_flow", "tracked", "_last_region",
               "_last", "_last_liveliness", "_drops_expected")


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


@pytest.fixture(scope="module")
def capacity_trace():
    """Records + world of the checked fig 9 N=8 ``adaptive`` arm."""
    from repro.scale.capacity_exp import all_arms, run_capacity_experiment
    arm = next(a for a in all_arms() if a.name == "adaptive")
    recorder = Recorder()
    suite = CheckSuite(default_suite().checkers + [recorder])
    run_capacity_experiment(arm, streams=8, duration=2.0, seed=7,
                            checks=suite)
    suite.uninstall()
    return recorder.records, suite.world


@pytest.fixture(scope="module")
def pubsub_trace():
    """Records of the fig 12 ``ownership`` smoke arm (leases expire and
    ownership fails over, so every pub-sub kind the checker declares is
    in the stream)."""
    from repro.pubsub.fig12 import PubSubArm, run_pubsub_experiment
    recorder = Recorder()
    suite = CheckSuite(default_suite().checkers + [recorder])
    run_pubsub_experiment(
        PubSubArm("ownership", ownership=True, faults=True),
        subscribers=64, duration=3.0, seed=3, checks=suite)
    suite.uninstall()
    return recorder.records


def test_recorded_capacity_arm_replays_identically(capacity_trace):
    records, world = capacity_trace
    assert len(records) > 10000
    assert any(r.kind == "hop.drop" for r in records)
    ref_checkers, ref_dispatched = run_reference(
        world, rebooked(world, records))
    new_checkers, new_dispatched = run_suite(world, rebooked(world, records))
    assert state_of(new_checkers) == state_of(ref_checkers)
    assert new_dispatched == ref_dispatched > 0
    seen = state_of(new_checkers)
    assert seen["time-monotonic"]["events_seen"] == len(records)
    assert seen["packet-conservation"]["tracked"] > 0
    assert seen["contract"]["_last_region"]


def test_recorded_pubsub_arm_replays_identically(pubsub_trace):
    records = pubsub_trace
    kinds = {r.kind for r in records if r.layer == "pubsub"}
    assert {"liveliness.lost", "ownership.failover"} <= kinds
    # Replayed without the broker (its end-of-run leases are not the
    # mid-run ones): the trace-only liveliness law still runs.
    ref_checkers, ref_dispatched = run_reference(bare_world(), records)
    new_checkers, new_dispatched = run_suite(bare_world(), records)
    assert state_of(new_checkers) == state_of(ref_checkers)
    assert new_dispatched == ref_dispatched > 0
    assert state_of(new_checkers)["pubsub"]["_last_liveliness"]


def test_every_hop_record_names_a_known_qdisc(capacity_trace):
    """``QdiscAccountingChecker`` and ``TokenBucketChecker`` skip a
    record whose ``iface`` they cannot look up; the trace sites and
    ``World.qdiscs()`` must therefore agree on the label, and the
    checker must have declared every ``hop.*`` kind there is."""
    records, world = capacity_trace
    hops = [r for r in records
            if r.layer == "net" and r.kind.startswith("hop.")]
    assert len(hops) > 1000
    known = world.qdiscs()
    assert {r.fields["iface"] for r in hops} <= set(known)
    assert {r.kind for r in hops} <= QdiscAccountingChecker.kinds


# ----------------------------------------------------------------------
# Hand-corrupted canaries (the record-driven ones of test_invariants)
# ----------------------------------------------------------------------
def _time_backwards():
    return bare_world(), [rec(1.0, "net", "hop.enqueue"),
                          rec(0.5, "net", "hop.drop")]


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
    return world, [rec(0.0, "net", "rsvp.expire")]


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
    (_time_backwards, "time-monotonic", "ran backwards"),
    (_corrupt_length_books, "qdisc-accounting", "length disagrees"),
    (_unbooked_drop, "qdisc-accounting", "drop not booked"),
    (_token_bucket_overflow, "token-bucket", "escaped"),
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


# ----------------------------------------------------------------------
# Property: the table never widens or narrows a checker's declaration
# ----------------------------------------------------------------------
class Spy(InvariantChecker):
    def __init__(self, name, layers, kinds):
        super().__init__()
        self.name = name
        self.layers = layers
        self.kinds = kinds
        self.handed = []

    def on_event(self, record):
        self.handed.append(record)


LAYERS = ("sim", "os", "net", "quo", "fluid", "pubsub", "orb", "av")
DECLARED = sorted(set().union(*(
    checker.kinds for checker in default_suite().checkers
    if checker.kinds is not None)))
UNDECLARED = ["event.dispatch", "hop.tx", "work", "cpu.preempt", "epoch.end"]
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


@settings(max_examples=150, deadline=None)
@given(extra=spy_declarations, stream=record_streams)
def test_no_checker_is_handed_a_kind_it_did_not_declare(extra, stream):
    # The built-in monitors' own declarations, as spies, plus random ones.
    spies = [Spy(c.name, c.layers, c.kinds)
             for c in default_suite().checkers]
    spies += [Spy(f"extra{i}", layers, kinds)
              for i, (layers, kinds) in enumerate(extra)]
    suite = CheckSuite(spies).install(bare_world())
    records = [rec(float(i), layer, kind)
               for i, (layer, kind) in enumerate(stream)]
    for record in records:
        suite.emit(record)
    for spy in spies:
        wanted = [
            r for r in records
            if (spy.layers is None or r.layer in spy.layers)
            and (spy.kinds is None or r.kind in spy.kinds)
        ]
        assert spy.handed == wanted
        assert spy.events_seen == len(wanted)
        assert suite.summary()[spy.name] == len(wanted)
    assert suite.events_dispatched == sum(
        any(s.layers is not None and r.layer in s.layers for s in spies)
        for r in records)
