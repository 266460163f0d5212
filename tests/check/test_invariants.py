"""Unit tests for the runtime invariant monitors.

Each monitor is exercised twice: against synthetic trace streams and
hand-corrupted object graphs (proving it *fires* on a violation), and
inside a real capacity-farm run (proving a healthy simulation passes
and that watching costs nothing — the checked run is byte-identical
to the unchecked baseline).
"""

import io
import json
import pickle
from heapq import heappush

import pytest

from repro.sim import Kernel
from repro.sim.kernel import ScheduledEvent
from repro.oskernel import Host, SimThread, ThreadState
from repro.net import (
    Dscp,
    FifoQueue,
    GuaranteedRateQueue,
    Network,
    Packet,
    Protocol,
)
from repro.obs.trace import TraceRecord, Tracer
from repro.quo import Contract, Region, ValueSC
from repro.check import (
    CheckSuite,
    ContractChecker,
    InvariantViolation,
    PacketConservationChecker,
    QdiscAccountingChecker,
    ReserveLedgerChecker,
    ThreadStateChecker,
    TimeMonotonicityChecker,
    TokenBucketChecker,
    World,
    default_suite,
)
from repro.check.invariants import FluidConservationChecker, PubSubChecker


def rec(time, layer, kind, flow=None, **fields):
    return TraceRecord(time, layer, kind, flow=flow, fields=fields or None)


def bare_world():
    return World(Kernel())


def grq_world():
    """A two-host network whose egress queues are GuaranteedRateQueues."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=1e6)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    net.link("a", "b",
             qdisc_a=GuaranteedRateQueue(kernel, band_capacity=2),
             qdisc_b=GuaranteedRateQueue(kernel, band_capacity=2))
    net.compute_routes()
    return kernel, net, World(kernel, network=net)


class Bag:
    """Attribute bag for stub object graphs."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


# ----------------------------------------------------------------------
# Time monotonicity: checked in the kernel's traced dispatch loop
# ----------------------------------------------------------------------
def watched_kernel():
    """A kernel under a suite of the time law alone (private tracer)."""
    kernel = Kernel()
    return kernel, CheckSuite([TimeMonotonicityChecker()]).install(
        World(kernel))


def push_into_the_past(kernel, delay, callback):
    """What an in-place re-arm site pushes, with its delay negated."""
    event = ScheduledEvent(callback, (), kernel.now - delay)
    event._kernel = kernel
    seq = kernel._seq
    kernel._seq = seq + 1
    heappush(kernel._heap, (kernel.now - delay, seq, event))


def late():
    pass


def test_time_monotonicity_catches_backwards_time():
    kernel, suite = watched_kernel()

    def early():
        push_into_the_past(kernel, 0.5, late)

    kernel.schedule(1.0, early)
    with pytest.raises(InvariantViolation) as err:
        kernel.run(until=2.0)
    assert err.value.checker == "time-monotonic"
    assert err.value.message == "event time ran backwards"
    assert err.value.context == {
        "event": "late", "event_time": 0.5, "previous_time": 1.0,
        "previous_event": early.__qualname__, "time": 1.0}
    assert suite.summary() == {"time-monotonic": 1}


def test_time_monotonicity_catches_backwards_time_through_step():
    kernel, _ = watched_kernel()
    kernel.schedule(1.0, lambda: push_into_the_past(kernel, 0.25, late))
    assert kernel.step()
    with pytest.raises(InvariantViolation, match="ran backwards") as err:
        kernel.step()
    assert err.value.context["event_time"] == 0.75
    assert err.value.context["previous_time"] == 1.0


def test_a_checked_kernel_counts_dispatches_it_builds_no_record_for():
    """No handler on the dispatch row: the kernel only counts; a plain
    sink added by an event gets every later dispatch record."""
    from repro.obs import RingBufferSink

    kernel, suite = watched_kernel()
    tracer = kernel.tracer
    sink = RingBufferSink()
    for t in (1.0, 2.0, 3.0):
        kernel.schedule(t, late)
    kernel.schedule(1.5, tracer.add_sink, sink)
    kernel.run()
    assert tracer.tally()["sim", "event.dispatch"] == kernel.events_executed == 4
    assert [(r.time, r.fields["callback"]) for r in sink.records] == [
        (2.0, "late"), (3.0, "late")]
    assert suite.summary() == {"time-monotonic": 0}


def test_violation_survives_a_pickle_round_trip():
    """A violation raised in a pool worker is pickled back to the parent;
    rebuilding it from its formatted message alone raised in the pool's
    result thread and hung ``repro --jobs 2 verify``."""
    violation = InvariantViolation("time-monotonic", "time went backwards",
                                   {"previous_time": 1.0})
    clone = pickle.loads(pickle.dumps(violation))
    assert (clone.checker, clone.message, clone.context) == (
        "time-monotonic", "time went backwards", {"previous_time": 1.0})
    assert str(clone) == str(violation)


def test_time_monotonicity_final_check_against_kernel_clock():
    kernel, suite = watched_kernel()
    kernel.schedule(5.0, late)
    kernel.run()
    assert kernel.traced_clock == 5.0
    suite.final_check()
    kernel.now = 0.0  # what an unguarded horizon advance would leave
    with pytest.raises(InvariantViolation, match="kernel clock ended") as err:
        suite.final_check()
    assert err.value.context["last_record"] == 5.0


def test_time_monotonicity_accepts_equal_times():
    kernel, suite = watched_kernel()
    kernel.schedule(0.0, late)
    kernel.schedule(0.0, lambda: kernel.schedule(0.0, late))
    kernel.run(until=1.0)
    kernel.run(until=0.5)  # a horizon behind the clock leaves it
    suite.final_check()
    assert kernel.now == 1.0 and kernel.traced_clock == 1.0
    assert suite.summary() == {"time-monotonic": 0}


# ----------------------------------------------------------------------
# Qdisc accounting
# ----------------------------------------------------------------------
def fifo_world():
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=1e6)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    net.link("a", "b", qdisc_a=FifoQueue(capacity=4),
             qdisc_b=FifoQueue(capacity=4))
    net.compute_routes()
    return kernel, net, World(kernel, network=net)


def test_qdisc_accounting_passes_on_honest_books():
    _, _, world = fifo_world()
    checker = QdiscAccountingChecker()
    checker.attach(world)
    checker.final_check()


def test_qdisc_accounting_catches_corrupt_length_books():
    _, _, world = fifo_world()
    checker = QdiscAccountingChecker()
    checker.attach(world)
    label, qdisc = next(iter(world.qdiscs().items()))
    qdisc.enqueued += 1  # phantom packet: counted but never stored
    with pytest.raises(InvariantViolation, match="length disagrees"):
        checker.on_event(rec(0.0, "net", "hop.enqueue", flow="f",
                             iface=label, packet=1))


def test_qdisc_accounting_catches_flow_ledger_mismatch():
    _, _, world = fifo_world()
    checker = QdiscAccountingChecker()
    checker.attach(world)
    qdisc = next(iter(world.qdiscs().values()))
    qdisc.dropped += 1  # drop not attributed to any flow
    with pytest.raises(InvariantViolation, match="per-flow drop ledger"):
        checker.final_check()


def _be_packet():
    return Packet(src="a", dst="b", src_port=1, dst_port=2,
                  protocol=Protocol.UDP, payload_bytes=500, dscp=Dscp.BE)


def test_qdisc_accounting_catches_unbooked_drop():
    """The bug class the exactly-once drop accounting closed: the queue
    rejects a packet (here a band overflow) but its books never hear
    about it.  Caught on the interface's ``hop.drop`` record."""
    _, _, world = grq_world()
    checker = QdiscAccountingChecker()
    checker.attach(world)
    label, qdisc = next(iter(world.qdiscs().items()))
    qdisc._drop = lambda packet: False  # refuse without booking
    # Band capacity 2: two accepted, two unbooked rejections.
    assert [qdisc.enqueue(_be_packet()) for _ in range(4)] == [
        True, True, False, False]
    assert qdisc.dropped == 0  # the corruption
    checker.final_check()  # the interface has reported no drop yet
    with pytest.raises(InvariantViolation, match="drop not booked"):
        checker.on_event(rec(0.0, "net", "hop.drop", flow="f",
                             iface=label, packet=3))


def test_qdisc_accounting_counts_drops_since_attach():
    """Drops booked before the checker attached are not its business;
    one booked and reported after it passes, per record and at teardown;
    a booked drop the interface never reported fails at teardown."""
    _, _, world = fifo_world()
    label, qdisc = next(iter(world.qdiscs().items()))
    for _ in range(6):  # capacity 4: two honest drops before attach
        qdisc.enqueue(_be_packet())
    checker = QdiscAccountingChecker()
    checker.attach(world)
    packet = _be_packet()
    assert not qdisc.enqueue(packet)
    checker.on_event(rec(0.0, "net", "hop.drop", flow=packet.flow_id,
                         iface=label, packet=packet.packet_id))
    checker.final_check()
    assert not qdisc.enqueue(_be_packet())  # booked, never reported
    with pytest.raises(InvariantViolation, match="drop not booked"):
        checker.final_check()


# ----------------------------------------------------------------------
# Token buckets
# ----------------------------------------------------------------------
def test_token_bucket_checker_catches_out_of_range_tokens():
    _, _, world = grq_world()
    checker = TokenBucketChecker()
    checker.attach(world)
    label, qdisc = next(iter(world.qdiscs().items()))
    qdisc.install_reservation("a:1->b:2", rate_bps=1e5, depth_bytes=1000)
    checker.final_check()  # fresh bucket: full, in range
    bucket = qdisc._buckets["a:1->b:2"]
    bucket._tokens = bucket.depth_bytes + 64.0
    with pytest.raises(InvariantViolation, match="escaped"):
        checker.on_event(rec(0.0, "net", "hop.enqueue", flow="a:1->b:2",
                             iface=label, packet=1))
    bucket._tokens = -1.0
    with pytest.raises(InvariantViolation, match="escaped"):
        checker.final_check()


# ----------------------------------------------------------------------
# Reserve and RSVP ledgers
# ----------------------------------------------------------------------
def test_reserve_ledger_passes_within_bound():
    kernel = Kernel()
    host = Host(kernel, "h")
    world = World(kernel, hosts=[host])
    thread = SimThread(host.cpu, priority=1)
    host.reserve_manager.request(thread, compute=0.4, period=1.0)
    checker = ReserveLedgerChecker()
    checker.attach(world)
    checker.final_check()


def test_reserve_ledger_catches_budget_escape():
    kernel = Kernel()
    host = Host(kernel, "h")
    world = World(kernel, hosts=[host])
    thread = SimThread(host.cpu, priority=1)
    reserve = host.reserve_manager.request(thread, compute=0.4, period=1.0)
    reserve.budget_remaining = -0.25
    checker = ReserveLedgerChecker()
    checker.attach(world)
    with pytest.raises(InvariantViolation, match=r"escaped \[0, C\]"):
        checker.on_event(rec(0.0, "os", "reserve.deplete"))


def test_reserve_ledger_catches_overcommitted_utilization():
    kernel = Kernel()
    host = Host(kernel, "h")
    world = World(kernel, hosts=[host])
    thread = SimThread(host.cpu, priority=1)
    reserve = host.reserve_manager.request(thread, compute=0.4, period=1.0)
    reserve.compute = 40.0  # admitted books now claim 40x the period
    reserve.budget_remaining = 40.0
    checker = ReserveLedgerChecker()
    checker.attach(world)
    with pytest.raises(InvariantViolation, match="exceeds the bound"):
        checker.final_check()


def test_rsvp_ledger_catches_oversubscribed_link():
    world = bare_world()
    iface = Bag(owner=Bag(name="router"), name="router->dst",
                label="router.router->dst",
                link=Bag(bandwidth_bps=1e6, nominal_bandwidth_bps=1e6))
    agent = Bag(utilization_bound=0.9, _reserved={iface: {"f:1->d:2": 2e6}})
    world.rsvp_agents = lambda: [agent]
    checker = ReserveLedgerChecker()
    checker.attach(world)
    with pytest.raises(InvariantViolation,
                       match="exceed the link budget") as err:
        checker.final_check()
    assert err.value.context["iface"] == "router.router->dst"


def test_rsvp_ledger_catches_non_positive_rate():
    world = bare_world()
    iface = Bag(owner=Bag(name="router"), name="router->dst",
                label="router.router->dst",
                link=Bag(bandwidth_bps=1e6, nominal_bandwidth_bps=1e6))
    agent = Bag(utilization_bound=0.9, _reserved={iface: {"f:1->d:2": 0.0}})
    world.rsvp_agents = lambda: [agent]
    checker = ReserveLedgerChecker()
    checker.attach(world)
    with pytest.raises(InvariantViolation, match="non-positive"):
        checker.on_event(rec(0.0, "net", "rsvp.release"))


# ----------------------------------------------------------------------
# Packet conservation
# ----------------------------------------------------------------------
def conservation_checker():
    checker = PacketConservationChecker()
    checker.attach(bare_world())  # no network: zero physical queues
    return checker


def test_conservation_accepts_a_full_legal_lifecycle():
    checker = conservation_checker()
    checker.on_event(rec(0.0, "net", "hop.enqueue", flow="f", packet=1))
    checker.on_event(rec(0.1, "net", "hop.dequeue", flow="f", packet=1))
    checker.on_event(rec(0.2, "net", "hop.rx", flow="f", packet=1))
    checker.on_event(rec(0.2, "net", "route.forward", flow="f", packet=1))
    checker.on_event(rec(0.2, "net", "hop.enqueue", flow="f", packet=1))
    checker.on_event(rec(0.3, "net", "hop.dequeue", flow="f", packet=1))
    checker.on_event(rec(0.4, "net", "hop.rx", flow="f", packet=1))
    checker.on_event(rec(0.4, "net", "nic.deliver", flow="f", packet=1))
    checker.final_check()
    assert checker.tracked == 1


def test_conservation_catches_dequeue_of_unqueued_packet():
    checker = conservation_checker()
    with pytest.raises(InvariantViolation, match="illegal packet"):
        checker.on_event(rec(0.0, "net", "hop.dequeue", flow="f", packet=7))


def test_conservation_catches_double_delivery():
    checker = conservation_checker()
    checker.on_event(rec(0.0, "net", "nic.deliver", flow="f", packet=3))
    with pytest.raises(InvariantViolation, match="resurrected"):
        checker.on_event(rec(0.1, "net", "nic.deliver", flow="f", packet=3))


def test_conservation_catches_forwarding_a_wire_packet():
    checker = conservation_checker()
    checker.on_event(rec(0.0, "net", "hop.enqueue", flow="f", packet=5))
    checker.on_event(rec(0.1, "net", "hop.dequeue", flow="f", packet=5))
    with pytest.raises(InvariantViolation, match="not held by a device"):
        checker.on_event(rec(0.1, "net", "route.forward", flow="f",
                             packet=5))


def test_conservation_catches_silent_device_consumption():
    checker = conservation_checker()
    checker.on_event(rec(0.0, "net", "hop.enqueue", flow="f", packet=9))
    checker.on_event(rec(0.1, "net", "hop.dequeue", flow="f", packet=9))
    checker.on_event(rec(0.2, "net", "hop.rx", flow="f", packet=9))
    with pytest.raises(InvariantViolation, match="never delivered"):
        checker.final_check()


def test_conservation_catches_phantom_queued_packet():
    checker = conservation_checker()
    checker.on_event(rec(0.0, "net", "hop.enqueue", flow="f", packet=2))
    # The world has no queues, so a tracked-queued packet is physically
    # impossible — the teardown bound must notice.
    with pytest.raises(InvariantViolation, match="than the queues hold"):
        checker.final_check()


def test_conservation_ignores_rsvp_signaling():
    checker = conservation_checker()
    checker.on_event(rec(0.0, "net", "hop.dequeue", flow="rsvp:path",
                         packet=1))
    checker.final_check()
    assert checker.tracked == 0


# ----------------------------------------------------------------------
# Contracts
# ----------------------------------------------------------------------
def test_contract_checker_accepts_causal_chain():
    checker = ContractChecker()
    checker.attach(bare_world())
    checker.on_event(rec(0.0, "quo", "region.transition", contract="c",
                         from_region=None, to_region="a"))
    checker.on_event(rec(1.0, "quo", "region.transition", contract="c",
                         from_region="a", to_region="b"))
    checker.final_check()


def test_contract_checker_catches_broken_chain():
    checker = ContractChecker()
    checker.attach(bare_world())
    checker.on_event(rec(0.0, "quo", "region.transition", contract="c",
                         from_region=None, to_region="a"))
    with pytest.raises(InvariantViolation, match="chain broken"):
        checker.on_event(rec(1.0, "quo", "region.transition", contract="c",
                             from_region="b", to_region="c"))


def test_contract_checker_catches_self_transition():
    checker = ContractChecker()
    checker.attach(bare_world())
    with pytest.raises(InvariantViolation, match="self-transition"):
        checker.on_event(rec(0.0, "quo", "region.transition", contract="c",
                             from_region="a", to_region="a"))


def test_contract_checker_final_checks_registered_contracts():
    kernel = Kernel()
    contract = Contract(kernel, "demo", regions=[
        Region("hot", lambda s: s["load"] > 0.5), Region("cool")])
    load = ValueSC(kernel, "load", initial=0.0)
    contract.attach(load)
    contract.evaluate()
    world = World(kernel, contracts=[contract])
    checker = ContractChecker()
    checker.attach(world)
    checker.final_check()  # healthy contract passes
    contract._evaluating = True
    with pytest.raises(InvariantViolation, match="mid-evaluation"):
        checker.final_check()


# ----------------------------------------------------------------------
# Thread state
# ----------------------------------------------------------------------
def test_thread_state_passes_on_healthy_scheduler():
    kernel = Kernel()
    host = Host(kernel, "h")
    world = World(kernel, hosts=[host])
    thread = SimThread(host.cpu, priority=1)
    host.cpu.submit(thread, 0.5)
    kernel.run()
    checker = ThreadStateChecker()
    checker.attach(world)
    checker.final_check()


def test_thread_state_catches_dead_thread_with_queued_work():
    kernel = Kernel()
    host = Host(kernel, "h")
    world = World(kernel, hosts=[host])
    blocker = SimThread(host.cpu, priority=9, name="blocker")
    victim = SimThread(host.cpu, priority=1, name="victim")
    host.cpu.submit(blocker, 10.0)
    host.cpu.submit(victim, 1.0)
    # Corrupt directly (kill() would correctly drain the queue): a dead
    # thread whose work queue survived is exactly the lazy-heap
    # staleness bug the kill path now prevents.
    victim.state = ThreadState.DEAD
    checker = ThreadStateChecker()
    checker.attach(world)
    with pytest.raises(InvariantViolation, match="queued work"):
        checker.on_event(rec(0.0, "os", "thread.kill"))


def test_thread_state_catches_running_non_current_thread():
    kernel = Kernel()
    host = Host(kernel, "h")
    world = World(kernel, hosts=[host])
    thread = SimThread(host.cpu, priority=1)
    thread.state = ThreadState.RUNNING  # claims the CPU it doesn't hold
    checker = ThreadStateChecker()
    checker.attach(world)
    with pytest.raises(InvariantViolation, match="not the CPU's current"):
        checker.final_check()


# ----------------------------------------------------------------------
# Fluid conservation
# ----------------------------------------------------------------------
def fluid_world(members):
    from repro.fluid.engine import FluidEngine
    kernel = Kernel()
    engine = FluidEngine(kernel)
    link = engine.add_link("l", 10e6)
    flow = engine.add_flow("cohort", 1e6, [link], members=members)
    checker = FluidConservationChecker()
    checker.attach(World(kernel, fluid=engine))
    kernel.run(until=1.0)
    engine.finalize()
    return flow, checker


def test_fluid_conservation_passes_on_a_congested_cohort():
    _flow, checker = fluid_world(members=40)
    checker.final_check()


def test_fluid_conservation_catches_a_memberless_cohort():
    flow, checker = fluid_world(members=3)
    flow.members = 0  # hand-corrupted: ledgers no link books any more
    with pytest.raises(InvariantViolation) as err:
        checker.final_check()
    assert err.value.checker == "fluid-conservation"
    assert err.value.context["flow"] == "cohort"
    assert err.value.context["members"] == 0


# ----------------------------------------------------------------------
# Suite wiring
# ----------------------------------------------------------------------
def test_suite_attaches_and_detaches_private_tracer():
    world = bare_world()
    suite = default_suite()
    assert world.kernel.tracer is None
    suite.install(world)
    assert world.kernel.tracer is not None
    suite.uninstall()
    assert world.kernel.tracer is None


def test_suite_reuses_existing_tracer_as_extra_sink():
    world = bare_world()
    tracer = Tracer(sinks=[]).attach(world.kernel)
    suite = default_suite().install(world)
    assert world.kernel.tracer is tracer
    assert suite in tracer.sinks
    suite.uninstall()
    assert suite not in tracer.sinks
    assert world.kernel.tracer is tracer  # not ours to detach


def test_suite_fans_out_by_layer():
    world = bare_world()
    qdisc_only = QdiscAccountingChecker()
    suite = CheckSuite([qdisc_only]).install(world)
    suite.emit(rec(0.0, "quo", "region.transition", contract="c",
                   from_region=None, to_region="a"))
    # quo never reaches a net checker
    assert suite.summary() == {"qdisc-accounting": 0}
    suite.emit(rec(0.0, "net", "hop.enqueue", flow="f", iface="?", packet=1))
    assert suite.summary() == {"qdisc-accounting": 1}
    assert suite.events_dispatched == 1


def test_suite_counts_a_pubsub_record_once():
    """``PubSubChecker.on_event`` once bumped a per-checker counter on
    top of the suite's own increment, doubling its row in ``summary()``."""
    suite = CheckSuite([PubSubChecker()]).install(bare_world())
    suite.emit(rec(1.0, "pubsub", "liveliness.lost", writer="w"))
    suite.emit(rec(2.0, "pubsub", "liveliness.revived", writer="w"))
    assert suite.summary()["pubsub"] == 2
    assert suite.events_dispatched == 2


def regress(time, previous=1.0):
    """The kernel's report of an entry due at ``time`` < ``previous``."""
    return rec(previous, "sim", "clock.regress", callback="g", seq=1,
               due=time, after="f")


def test_suite_hands_a_checker_only_the_kinds_it_declared():
    suite = CheckSuite([PubSubChecker(), TimeMonotonicityChecker()])
    suite.install(bare_world())
    suite.emit(rec(0.0, "pubsub", "sample.unmatched", reader="r"))
    suite.emit(rec(0.0, "sim", "event.dispatch", callback="f", seq=0))
    # Dispatched (the layer has a subscriber) but not the checker's
    # kind; the every-layer checker takes its one kind, from a layer
    # nobody subscribes to, and no other.
    assert suite.events_dispatched == 1
    assert suite.summary() == {"pubsub": 0, "time-monotonic": 0}
    with pytest.raises(InvariantViolation, match="ran backwards"):
        suite.emit(regress(0.5))
    assert suite.events_dispatched == 1
    assert suite.summary() == {"pubsub": 0, "time-monotonic": 1}


def test_suite_propagates_violations_fail_fast():
    world = bare_world()
    suite = CheckSuite([TimeMonotonicityChecker()]).install(world)
    suite.emit(rec(1.0, "sim", "event.dispatch", callback="f", seq=0))
    with pytest.raises(InvariantViolation) as err:
        suite.emit(regress(0.0))
    assert err.value.context["event_time"] == 0.0
    assert err.value.context["previous_time"] == 1.0


def test_counters_survive_uninstall_and_add_up_over_installs():
    """Each install watches its own run: the same writer and contract
    start afresh (their law state is per run), the counters add up."""
    suite = CheckSuite([PubSubChecker(), ContractChecker(),
                        TimeMonotonicityChecker()])
    tracer = Tracer(sinks=[])
    for run in range(2):
        world = bare_world()
        tracer.attach(world.kernel)
        suite.install(world)
        tracer.instant("pubsub", "liveliness.lost", fields={"writer": "w"})
        for start, end in ((None, "a"), ("a", "b")):
            tracer.instant("quo", "region.transition", fields={
                "contract": "c", "from_region": start, "to_region": end})
        tracer.instant("sim", "event.dispatch",
                       fields={"callback": "f", "seq": run})  # nobody's
        tracer.instant("net", "hop.rx")  # no checker's kind
        suite.uninstall()
        tracer.instant("pubsub", "liveliness.lost",
                       fields={"writer": "w"})  # unwatched
        tracer.detach()
    assert suite.summary() == {"pubsub": 2, "contract": 4,
                               "time-monotonic": 0}
    assert suite.events_dispatched == 6
    assert tracer.records_emitted == 12


def test_uninstall_lets_go_of_the_world_and_reinstall_reattaches():
    """``uninstall`` once left the suite and every checker holding the
    world (and the queue snapshots), so a held suite kept its run's
    kernel alive."""
    import gc
    import weakref

    kernel, net, world = grq_world()
    suite = default_suite().install(world)
    (qdisc_checker,) = [c for c in suite.checkers
                        if isinstance(c, QdiscAccountingChecker)]
    assert qdisc_checker._qdiscs
    suite.emit(rec(0.0, "net", "hop.rx"))
    with pytest.raises(InvariantViolation, match="ran backwards"):
        suite.emit(regress(-1.0, previous=0.0))
    suite.uninstall()
    assert suite.world is None
    assert all(checker.world is None for checker in suite.checkers)
    assert qdisc_checker._qdiscs == {}
    counted = suite.summary()
    assert counted["time-monotonic"] == 1 and suite.events_dispatched == 1
    assert counted["packet-conservation"] == 1
    assert qdisc_checker._drops_expected  # per-record books stay
    dead = weakref.ref(kernel)
    del kernel, net, world
    gc.collect()
    assert dead() is None

    _, _, world = grq_world()
    suite.install(world)
    assert suite.world is world
    assert all(checker.world is world for checker in suite.checkers)
    assert qdisc_checker._qdiscs.keys() == world.qdiscs().keys()
    suite.uninstall()
    assert suite.summary() == counted


def test_default_suite_has_every_monitor():
    suite = default_suite()
    names = {checker.name for checker in suite.checkers}
    assert names == {
        "time-monotonic", "qdisc-accounting", "token-bucket",
        "reserve-ledger", "packet-conservation", "contract",
        "thread-state", "fluid-conservation", "routing", "pubsub",
    }
    assert len(suite.checkers) == len(names)


# ----------------------------------------------------------------------
# Integration: a real run under the full suite
# ----------------------------------------------------------------------
def small_capacity_run(checks=None, fault_plan=None):
    from repro.experiments.capacity_exp import all_arms, run_capacity_experiment
    arm = next(a for a in all_arms() if a.name == "adaptive")
    return run_capacity_experiment(arm, streams=3, duration=2.0, seed=7,
                                   fault_plan=fault_plan, checks=checks)


def test_healthy_run_passes_and_is_byte_identical():
    baseline = small_capacity_run()
    suite = default_suite()
    checked = small_capacity_run(checks=suite)
    assert suite.events_dispatched > 0
    assert checked.events_executed == baseline.events_executed
    assert pickle.dumps(checked) == pickle.dumps(baseline)


def test_a_tracer_allow_list_filters_sinks_not_checkers():
    """The allow-list once ran before every sink, so ``Tracer(layers=
    ("av",))`` switched a reusing suite off: a green run with nothing
    dispatched.  Checkers get what they declared; the plain sink still
    gets only ``av``, byte for byte what it gets with no suite."""
    from repro.obs import JsonlSink
    from repro.experiments.capacity_exp import all_arms, run_capacity_experiment
    arm = next(a for a in all_arms() if a.name == "adaptive")

    def run(layers, checks):
        out = io.StringIO()
        tracer = Tracer(sinks=[JsonlSink(out)], layers=layers)
        run_capacity_experiment(arm, streams=4, duration=1.0, seed=7,
                                checks=checks, tracer=tracer)
        return out.getvalue(), tracer

    full, filtered = default_suite(), default_suite()
    run(None, full)
    jsonl, tracer = run(("av",), filtered)
    assert jsonl == run(("av",), None)[0]
    assert {json.loads(line)["layer"] for line in jsonl.splitlines()} == {"av"}
    assert tracer.records_emitted == len(jsonl.splitlines())
    assert {layer for layer, _ in tracer.counts} == {"av"}
    seen = filtered.summary()
    assert seen == full.summary()
    assert filtered.events_dispatched == full.events_dispatched > 0
    for name in ("qdisc-accounting", "packet-conservation", "token-bucket"):
        assert seen[name] > 0, name
    # The counters are derived from declarations; what the checkers
    # built from the records they were handed must match as well.
    # (Packet ids are numbered per process, so fates compare as a list.)
    def built(suite):
        checkers = {c.name: c for c in suite.checkers}
        conservation = checkers["packet-conservation"]
        return (sorted(conservation._state.values()), conservation.tracked,
                checkers["qdisc-accounting"]._drops_expected)

    fates, tracked, _ = built(filtered)
    assert built(filtered) == built(full)
    assert fates and tracked > 0


def test_faulted_run_still_satisfies_every_invariant():
    suite = default_suite()
    result = small_capacity_run(checks=suite, fault_plan=[
        {"kind": "link_flap", "link": ["router", "dst"],
         "at": 0.6, "duration": 0.4},
        {"kind": "loss_burst", "link": ["src", "router"],
         "at": 1.0, "duration": 0.5, "loss": 0.5},
    ])
    assert result.events_executed > 0
    assert suite.events_dispatched > 0
