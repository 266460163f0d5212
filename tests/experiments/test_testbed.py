"""One testbed under every scenario.

``checks``, ``tracer`` and ``fault_plan`` mean the same thing on every
registered scenario because one module
(:mod:`repro.experiments.testbed`) owns the kernel lifecycle, the suite's
install point and the fault plan's semantics.  The scenario cases are
parametrised from ``scenario_registry.FIGURES``, so a figure on a new
scenario is covered with no edit here.
"""

import gc
import inspect
import pickle
import tracemalloc
import types
import weakref

import pytest

from repro.check import PacketConservationChecker, default_suite
from repro.cli import select
from repro.experiments.runner import registered_scenarios, scenario_function
from repro.experiments.scenario_registry import FIGURES
from repro.experiments import testbed  # not the class: pytest collects Test*
from repro.obs import RingBufferSink, Tracer
from repro.sim.kernel import Kernel
from tests.net.test_topology import forwarding_path

#: Short timelines (and one small sweep point) as ``--set`` settings, by
#: scenario; a scenario not named here runs the figure's own parameters.
SHORT = {
    "priority": ["duration=3"],
    "reservation_net": ["duration=8", "load_start=2", "load_end=5"],
    "reservation_cpu": ["duration=4"],
    "faults": ["duration=12"],
    "route": ["routers=12", "duration=8", "fail_at=3"],
    "capacity": ["duration=3", "streams=4"],
    "scale": ["duration=3", "streams=100"],
    "pubsub": ["duration=3", "subscribers=128"],
}
#: Scenarios whose figures pick an arm, and so take a ``fault_plan``.
ARM_SCENARIOS = {figure.scenario for figure in FIGURES.values()
                 if "arm" in figure.arms[0][1]}


def _short_params(scenario: str, arm: int = -1) -> dict:
    """One arm (default: the last, the most mechanism-laden) of the last
    figure on ``scenario``, narrowed the way ``repro run`` narrows it."""
    figure = [f for f in FIGURES.values() if f.scenario == scenario][-1]
    figure = figure._replace(arms=(figure.arms[arm],))
    settings = SHORT.get(scenario, [])
    if figure.sweep and scenario not in SHORT:
        settings = [f"{figure.sweep}={figure.points[0]}"]
    (spec,) = select(figure, [], settings, seed=1).specs()
    return spec.call_kwargs()


def _events(payload) -> int:
    events = getattr(payload, "events_executed", None)
    return payload["events"] if events is None else events


KERNEL_RUNNING = sorted({figure.scenario for figure in FIGURES.values()})


@pytest.fixture(scope="module")
def runs():
    """``runs(scenario)``: the scenario's short arm run plain and watched,
    once per module: both payloads, the suite (still held), the watched
    tracer's record count and weak references to the two runs' kernels.
    The tracer itself is not kept: it stays attached to its last kernel."""
    made = {}

    def get(scenario: str) -> types.SimpleNamespace:
        if scenario not in made:
            run = scenario_function(scenario)
            params = _short_params(scenario)
            with pytest.MonkeyPatch.context() as patch:
                kernels = _kernels_built(patch)
                plain = run(**params)
                suite = default_suite()
                tracer = Tracer(sinks=[RingBufferSink(capacity=1024)])
                watched = run(**params, checks=suite,
                              tracer=tracer)  # raises if red
            made[scenario] = types.SimpleNamespace(
                plain=plain, watched=watched, suite=suite,
                records_emitted=tracer.records_emitted, kernels=kernels)
        return made[scenario]

    return get


def _kernels_built(patch) -> list:
    """Weak references to every kernel a ``Testbed`` builds while
    ``patch`` is active."""
    built = []
    init = testbed.Testbed.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self.kernel))

    patch.setattr(testbed.Testbed, "__init__", recording)
    return built


# ----------------------------------------------------------------------
# Every scenario: watched and traced, nothing moves
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", KERNEL_RUNNING)
def test_scenario_is_green_under_the_suite_and_unperturbed(scenario, runs):
    got = runs(scenario)
    assert _events(got.watched) > 0
    assert got.suite.events_dispatched > 0
    assert got.records_emitted >= got.suite.events_dispatched
    assert pickle.dumps(got.watched) == pickle.dumps(got.plain)


# ----------------------------------------------------------------------
# A result is data: it keeps none of its run's world alive
# ----------------------------------------------------------------------
#: Objects the reachability walk does not enter: code, not run state.
NOT_RUN_STATE = (types.ModuleType, type, types.FunctionType,
                 types.BuiltinFunctionType)


def _reaches_a_kernel(root) -> bool:
    seen = set()
    pending = [root]
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(obj, NOT_RUN_STATE):
            continue
        seen.add(id(obj))
        if isinstance(obj, Kernel):
            return True
        pending.extend(gc.get_referents(obj))
    return False


@pytest.mark.parametrize("scenario", KERNEL_RUNNING)
def test_a_result_reaches_no_kernel(scenario, runs):
    got = runs(scenario)
    assert not _reaches_a_kernel(got.plain)
    assert not _reaches_a_kernel(got.watched)


@pytest.mark.parametrize("scenario", KERNEL_RUNNING)
def test_a_result_is_what_its_pickle_holds(scenario, runs):
    """The in-process payload is the one a worker or the cache returns:
    the round trip repickles to the same bytes, attribute by attribute
    (nothing is dropped on the way out)."""
    payload = runs(scenario).plain
    clone = pickle.loads(pickle.dumps(payload))
    assert pickle.dumps(clone) == pickle.dumps(payload)
    state = payload if isinstance(payload, dict) else vars(payload)
    cloned = clone if isinstance(clone, dict) else vars(clone)
    assert cloned.keys() == state.keys()
    for name, value in state.items():
        assert pickle.dumps(cloned[name]) == pickle.dumps(value), name


@pytest.mark.parametrize("scenario", KERNEL_RUNNING)
def test_a_finished_arm_frees_its_kernel(scenario, runs):
    """Both runs' kernels are collected while their payloads and the
    watched run's suite are still held."""
    got = runs(scenario)
    gc.collect()
    assert len(got.kernels) == 2
    assert [ref() for ref in got.kernels] == [None, None]
    assert got.suite.events_dispatched > 0  # still readable, still held


def test_held_fig9_payloads_cost_kilobytes():
    """Four fig 9 ``adaptive`` payloads, N = 8 .. 64: a payload holding
    its world cost about 2.4 MB here, the measurements alone ~50 kB."""
    from repro.experiments.capacity_exp import all_arms, run_capacity_experiment
    arm = next(a for a in all_arms() if a.name == "adaptive")
    run_capacity_experiment(arm, streams=2, duration=0.5)  # warm imports
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        held = [run_capacity_experiment(arm, streams=n, duration=1.0)
                for n in (8, 16, 32, 64)]
        gc.collect()
        cost = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [len(payload.rows) for payload in held] == [8, 16, 32, 64]
    assert cost < 200_000


def test_a_reused_tracer_carries_no_suite_into_the_next_run():
    """``Testbed.run`` once left the suite on the caller's tracer, so a
    second run over it raised a false ``time-monotonic``: the first
    run's checkers were watching the second run's records."""
    from repro.experiments.capacity_exp import all_arms, run_capacity_experiment
    arm = next(a for a in all_arms() if a.name == "adaptive")
    tracer = Tracer(sinks=[])
    suites = [default_suite(), default_suite()]
    for suite in suites:
        run_capacity_experiment(arm, streams=4, duration=1.0, seed=7,
                                checks=suite, tracer=tracer)
    assert tracer.sinks == []
    first, second = suites
    assert second.summary() == first.summary()
    assert second.events_dispatched == first.events_dispatched > 0
    # Each suite watched its whole run: every packet record of both runs.
    packets = sum(count for (layer, kind), count in tracer.counts.items()
                  if layer == "net" and kind in PacketConservationChecker.kinds)
    assert packets == 2 * first.summary()["packet-conservation"] > 0


def test_one_suite_judges_each_run_by_its_own_records():
    """A suite installed for a second run once kept the first run's law
    state: the second run raised a false ``time-monotonic`` and, with
    that law left out, a false ``packet-conservation`` "resurrected"
    (packet ids restart at 1 on every kernel).  The counters add up."""
    from repro.experiments.capacity_exp import all_arms, run_capacity_experiment
    arm = next(a for a in all_arms() if a.name == "adaptive")
    suite = default_suite()
    run_capacity_experiment(arm, streams=4, duration=1.0, seed=7,
                            checks=suite)
    once = suite.summary()
    run_capacity_experiment(arm, streams=4, duration=1.0, seed=7,
                            checks=suite)
    assert once["packet-conservation"] > 0
    assert suite.summary() == {name: 2 * count
                               for name, count in once.items()}


def test_the_example_builders_stand_on_the_same_testbed():
    from repro.experiments.scenarios import run_quickstart, run_uav_pipeline

    suite = default_suite()
    run_quickstart(checks=suite, verbose=False)
    assert suite.events_dispatched > 0
    suite = default_suite()
    watched = []  # the World handed to install (uninstall lets go of it)
    install = suite.install

    def recording(world, *rest):
        watched.append(world)
        return install(world, *rest)

    suite.install = recording
    run_uav_pipeline(duration=6.0, burst_start=2.0, burst_stop=4.0,
                     checks=suite, verbose=False)
    assert suite.events_dispatched > 0
    # The UAV builder wires its own qosket; its contract is watched too.
    (world,) = watched
    assert [c.name for c in world.contracts] == ["frame-filtering"]
    assert suite.world is None


def test_every_scenario_takes_checks_and_tracer_and_arms_take_faults():
    for name in registered_scenarios():
        if name == "checked":  # wraps the others, own suite
            continue
        accepted = inspect.signature(scenario_function(name)).parameters
        assert {"checks", "tracer"} <= set(accepted), name
        assert ("fault_plan" in accepted) == (name in ARM_SCENARIOS), name


# ----------------------------------------------------------------------
# fault_plan: None is the canonical plan, a list replaces it, [] is none
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", ["faults", "route"])
def test_empty_fault_plan_is_a_fault_free_run(scenario):
    def fault_records(**extra):
        tracer = Tracer(sinks=[], layers=["fault"])
        scenario_function(scenario)(**_short_params(scenario), **extra,
                                    tracer=tracer)
        return tracer.records_emitted

    assert fault_records() > 0  # the canonical gauntlet / backbone cut
    assert fault_records(fault_plan=[]) == 0


def test_fault_plan_is_plain_json_to_repro_run(capsys):
    from repro.cli import main

    flap = ('fault_plan=[{"kind": "link_flap", "link": ["router", "dst"], '
            '"at": 1.5, "duration": 1.0}]')
    common = ["--no-cache", "--jobs", "1", "run", "fig9", "--arm", "reserves",
              "--set", "streams=2", "--set", "duration=4"]
    assert main(common) == 0
    clean = capsys.readouterr().out
    assert main(common + ["--set", flap]) == 0
    assert capsys.readouterr().out != clean
    # A fault-free fig 8 still renders: nothing injected, nothing lost.
    assert main(["--no-cache", "--jobs", "1", "run", "fig8", "--arm",
                 "adaptive", "--set", "duration=8",
                 "--set", "fault_plan=[]"]) == 0
    assert "Fig 8" in capsys.readouterr().out


def test_an_outage_window_lowers_delivery_inside_the_window_only():
    params = _short_params("reservation_net", arm=0)  # no reservation
    params.update(duration=9.0, load_start=7.0, load_end=8.0)
    outage = [{"kind": "link_flap", "link": ["router", "dst"],
               "at": 2.0, "duration": 2.0}]
    result = scenario_function("reservation_net")(
        **params, fault_plan=outage, checks=default_suite())
    delivery = result.sender_delivery
    assert delivery.delivery_fraction(0.5, 2.0) > 0.95
    assert delivery.delivery_fraction(2.1, 3.9) < 0.05
    assert delivery.delivery_fraction(4.5, 7.0) > 0.95


def test_inject_resolves_the_plan_one_way():
    canonical = [{"kind": "link_down", "link": ["src", "router"], "at": 1.0}]
    other = [{"kind": "link_flap", "link": ["router", "dst"], "at": 2.0,
              "duration": 1.0}]

    def installed(fault_plan):
        bed = testbed.Testbed(seed=1)
        bed.star({"src": None, "dst": None}, dst="dst", default_bps=10e6)
        return bed.inject(fault_plan, canonical).to_dicts()

    assert installed(None) == canonical
    assert installed(other) == other
    assert installed([]) == []


# ----------------------------------------------------------------------
# The pieces
# ----------------------------------------------------------------------
def test_tracer_is_attached_before_anything_is_built():
    tracer = Tracer(sinks=[])
    bed = testbed.Testbed(tracer=tracer)
    assert bed.kernel.tracer is tracer and bed.network is None


def test_star_names_every_egress_by_the_rule():
    bed = testbed.Testbed()
    bottleneck = bed.star({"a": None, "dst": 5e6, "b": 2e6}, dst="dst",
                          default_bps=1e6, band_capacity=7, intserv_bound=0.8)
    bed.watch()
    assert list(bed.hosts) == ["a", "dst", "b"]
    assert bottleneck.bandwidth_bps == 5e6
    assert bed.network.link_between("a", "router").bandwidth_bps == 1e6
    assert bed.network.link_between("b", "router").bandwidth_bps == 2e6
    names = {label: qdisc.name for label, qdisc in bed.world.qdiscs().items()}
    assert names == {
        "a.a->router": "a-out", "router.router->a": "rtr-to-a",
        "b.b->router": "b-out", "router.router->b": "rtr-to-b",
        "router.router->dst": "bottleneck", "dst.dst->router": "dst-out",
    }
    assert {agent.utilization_bound for agent in bed.world.rsvp_agents()
            } == {0.8}
    assert forwarding_path(bed.network, "a", "dst") == ["a", "router", "dst"]


def test_a_filtered_stream_hands_its_contract_to_the_watched_world():
    from repro.core.policies import QosPolicy
    from repro.sim.process import Process

    bed = testbed.Testbed(seed=1, checks=default_suite())
    bed.star({"src": None, "dst": None}, dst="dst", default_bps=10e6)
    bed.av_endpoints(("src", "dst"))
    bed.watch()
    streams = []

    def driver():
        for name, threshold in (("plain", None), ("shedding", 0.05)):
            sender, receiver = yield from bed.open_stream(
                name, QosPolicy(), bed.rng.stream(name),
                degrade_threshold=threshold, qosket_name=f"qosket:{name}")
            streams.append((sender, receiver))
            sender.start()

    Process(bed.kernel, driver(), name="driver")
    assert bed.run(until=2.0) > 0
    (plain, _), (shedding, receiver) = streams
    assert plain.qosket is None and plain.frame_filter is None
    assert [c.name for c in bed.world.contracts] == ["qosket:shedding"]
    assert bed.world.contracts[0] is shedding.qosket.contract
    assert receiver.delivery.received_count() > 0
    assert len(receiver.frame_types) == receiver.delivery.received_count()
