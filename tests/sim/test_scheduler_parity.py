"""Repeatability and fan-out parity harness.

The kernel pops events in strictly increasing ``(time, seq)`` order
from one heap (:mod:`repro.sim.kernel`), and every random draw comes
from a seeded stream, so a scenario is a pure function of its spec.
Two pins hold the simulator to that:

* **Run-to-run parity.**  Every registered scenario family runs twice
  in one interpreter and must produce *pickle-identical* payloads and
  the same event count.  Payloads are what the figure renderers
  consume, so payload parity implies the published ``results/*.txt``
  are reproducible byte for byte; a second run that differs means the
  first one leaked state (a module-level cache, a counter that feeds a
  decision, an object reused across kernels).  The quickstart trace
  stream is compared the same way, record for record.
* **Fan-out parity.**  Worker processes cannot reorder anything —
  ``--jobs 1`` and ``--jobs 4`` produce identical payloads.

Each scenario family runs here at a scaled-down duration (the full
figures belong to ``repro verify``); the suite still exercises every
code path that schedules events — priority lanes, network and CPU
reservation, fault injection and recovery, the capacity farm's
frame clock, the soak harness's invariant checkers, and all four
ablations.

This file also pins the tie-break rules themselves: same-timestamp
events fire in schedule order (FIFO), including through a
:class:`~repro.sim.TickCoalescer`.

(The file name dates from when the two runs of each family were one
per pending-event backend; it stays so that the test ids do.)
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.runner import ExperimentRunner, RunSpec
from repro.experiments.priority_exp import PriorityArm
from repro.experiments.reservation_cpu_exp import CpuArm
from repro.experiments.reservation_net_exp import NetworkArm
from repro.experiments.fault_exp import FaultArm
from repro.experiments.route_exp import RouteArm, route_arms
from repro.experiments.capacity_exp import CapacityArm
from repro.experiments.scale_exp import ScaleArm
from repro.experiments.pubsub_exp import PubSubArm, pubsub_arms
from repro.experiments.soak import case_spec, generate_case
from repro.sim import Kernel, TickCoalescer


def _parity_specs():
    """One scaled-down spec per registered scenario family."""
    soaked = case_spec(generate_case(1, 0, duration=3.0))
    return {
        "priority": RunSpec(
            "priority",
            {"arm": PriorityArm.figure4a().params(),
             "duration": 3.0}, seed=1),
        "reservation_net": RunSpec(
            "reservation_net",
            {"arm": NetworkArm("3-full", "full", False).params(),
             "duration": 30.0, "load_start": 5.0, "load_end": 15.0}, seed=1),
        "reservation_cpu": RunSpec(
            "reservation_cpu",
            {"arm": CpuArm.load_reserve().params(),
             "duration": 10.0}, seed=1),
        "faults": RunSpec(
            "faults",
            {"arm": FaultArm("adaptive", True).params(),
             "duration": 30.0}, seed=1),
        "capacity": RunSpec(
            "capacity",
            {"arm": CapacityArm("adaptive", True, True, True).params(),
             "streams": 4, "duration": 4.0}, seed=1),
        "scale": RunSpec(
            "scale",
            {"arm": ScaleArm("adaptive", admission=True,
                             adaptation=True).params(),
             "streams": 40, "duration": 2.0, "fluid": True,
             "bottleneck_bps": 10e6, "cross_traffic_bps": 4e6}, seed=1),
        "route": RunSpec(
            "route",
            {"arm": RouteArm("dynamic-resignal", True, True).params(),
             "routers": 12, "duration": 12.0, "fail_at": 3.0}, seed=1),
        "pubsub": RunSpec(
            "pubsub",
            {"arm": PubSubArm("ownership", ownership=True,
                              faults=True).params(),
             "subscribers": 64, "duration": 4.0}, seed=1),
        # A drawn soak case: a faulted fig 12 point under the suite.
        "checked": RunSpec(
            "checked",
            {"scenario": soaked.scenario, "params": soaked.params},
            soaked.seed),
        "ablation_ecn": RunSpec("ablation_ecn", {"use_red": True}),
        "ablation_phb": RunSpec("ablation_phb", {"diffserv": True}),
        "ablation_reserve_policy": RunSpec(
            "ablation_reserve_policy", {"policy": "SOFT"}),
        "ablation_priority_driven": RunSpec(
            "ablation_priority_driven", {"priority_driven": True}),
    }


@pytest.mark.parametrize("family", sorted(_parity_specs()))
def test_scenario_payload_parity(family):
    """Every scenario family yields pickle-identical payloads, twice."""
    spec = _parity_specs()[family]
    runner = ExperimentRunner(jobs=1, cache=False)
    first = runner.run_one(spec)
    second = runner.run_one(spec)
    assert second.events == first.events, (
        f"{family}: second run executed {second.events} events, "
        f"first run executed {first.events}")
    assert pickle.dumps(second.payload) == pickle.dumps(first.payload), (
        f"{family}: payload bytes diverge between two runs of one spec")


def test_quickstart_trace_stream_parity():
    """The dispatch-level trace stream is identical run to run."""
    from repro.experiments.scenarios import run_quickstart
    from repro.obs.trace import Tracer

    streams = []
    for _ in range(2):
        tracer = Tracer()
        run_quickstart(tracer=tracer)
        streams.append([
            (r.time, r.layer, r.kind, r.phase, r.span, r.flow,
             r.request, r.fields)
            for r in tracer.sinks[0].records
        ])
    assert streams[0], "quickstart produced no trace records"
    assert streams[1] == streams[0]


def test_same_time_ties_fire_in_schedule_order():
    """Ties on the timestamp fire strictly in schedule order."""
    kernel = Kernel()
    fired = []
    # Deliberately scheduled out of label order, all at t=1.0.
    for label in ("a", "b", "c", "d", "e"):
        kernel.schedule(1.0, fired.append, label)
    # A cancellation between ties must not shift its neighbours.
    doomed = kernel.schedule(1.0, fired.append, "doomed")
    kernel.schedule(1.0, fired.append, "f")
    doomed.cancel()
    # Later-scheduled events at an *earlier* time still fire first.
    kernel.schedule(0.5, fired.append, "early")
    kernel.run()
    assert fired == ["early", "a", "b", "c", "d", "e", "f"]


def test_coalesced_ties_preserve_registration_order():
    """Coalescing same-tick wakeups cannot reorder them."""
    kernel = Kernel()
    fired = []
    grid = TickCoalescer(kernel, quantum=0.010)
    # All three quantize to the same 10 ms tick; a plain event at the
    # exact tick time scheduled *after* the first wakeup fires after
    # the whole batch (the batch occupies the first wakeup's slot).
    grid.call_at(0.0101, fired.append, "w1")
    kernel.schedule_at(0.020, fired.append, "plain")
    grid.call_at(0.0150, fired.append, "w2")
    grid.call_at(0.020, fired.append, "w3")
    kernel.run()
    assert fired == ["w1", "w2", "w3", "plain"]


@pytest.mark.parametrize("jobs", [1, 4])
def test_worker_fanout_parity(monkeypatch, jobs, tmp_path):
    """``--jobs 1`` and ``--jobs 4`` produce identical payloads.

    The capacity farm leans hardest on the frame-clock/coalescing path,
    so its arms are the sharpest probe that worker fan-out cannot
    perturb tie-breaking.  Both runs execute with the cache disabled;
    the reference bytes are stored per-test-session by parametrization
    order (jobs=1 runs first and seeds the expectation file).
    """
    specs = [
        RunSpec("capacity",
                {"arm": arm.params(), "streams": 3,
                 "duration": 2.0}, seed=1)
        for arm in (CapacityArm("best-effort", False, False, False),
                    CapacityArm("priority", True, False, False),
                    CapacityArm("reserves", True, True, False),
                    CapacityArm("adaptive", True, True, True))
    ]
    runner = ExperimentRunner(jobs=jobs, cache=False)
    results = runner.run(specs)
    blob = pickle.dumps([r.payload for r in results])
    marker = tmp_path.parent / "parity_jobs_reference.pkl"
    if marker.exists():
        assert blob == marker.read_bytes(), (
            f"jobs={jobs} diverged from the earlier worker count")
    else:
        marker.write_bytes(blob)


@pytest.mark.parametrize("jobs", [1, 4])
def test_worker_fanout_parity_pubsub(monkeypatch, jobs, tmp_path):
    """Fig 12's pub-sub arms survive worker fan-out unchanged.

    The pub-sub family exercises yet another scheduler surface —
    liveliness leases racing heartbeat datagrams, the two-phase
    same-tick expiry confirmation, deadline monitors and pacing
    contracts all keyed to identical timestamps — so it gets its own
    jobs=1-vs-4 pin.  Payloads are pickled one by one (see the route
    pin above for why)."""
    specs = [
        RunSpec("pubsub",
                {"arm": arm.params(), "subscribers": 64,
                 "duration": 4.0}, seed=1)
        for arm in pubsub_arms()
    ]
    runner = ExperimentRunner(jobs=jobs, cache=False)
    results = runner.run(specs)
    blob = pickle.dumps([pickle.dumps(r.payload) for r in results])
    marker = tmp_path.parent / "parity_jobs_pubsub_reference.pkl"
    if marker.exists():
        assert blob == marker.read_bytes(), (
            f"jobs={jobs} diverged from the earlier worker count")
    else:
        marker.write_bytes(blob)


@pytest.mark.parametrize("jobs", [1, 4])
def test_worker_fanout_parity_route(monkeypatch, jobs, tmp_path):
    """Fig 11's rerouting arms survive worker fan-out unchanged.

    The routing gauntlet stresses a different scheduler surface than
    the capacity farm — LSA flood fan-out, coalesced SPF timers, and
    RSVP make-before-break re-signaling all race on identical
    timestamps — so it gets its own jobs=1-vs-4 pin.

    Payloads are pickled one by one: a single dump of the whole list
    would also encode *cross-payload* string sharing (interning makes
    in-process payloads share router-name objects, worker round-trips
    don't), which is pickle-memo trivia, not a determinism signal."""
    specs = [
        RunSpec("route",
                {"arm": arm.params(), "routers": 12,
                 "duration": 12.0, "fail_at": 3.0}, seed=1)
        for arm in route_arms()
    ]
    runner = ExperimentRunner(jobs=jobs, cache=False)
    results = runner.run(specs)
    blob = pickle.dumps([pickle.dumps(r.payload) for r in results])
    marker = tmp_path.parent / "parity_jobs_route_reference.pkl"
    if marker.exists():
        assert blob == marker.read_bytes(), (
            f"jobs={jobs} diverged from the earlier worker count")
    else:
        marker.write_bytes(blob)
