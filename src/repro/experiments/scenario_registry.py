"""The figure table: every scenario and every figure, declared once.

Importing this module registers each paper experiment and ablation
with :mod:`repro.experiments.runner` under a stable name, and builds
:data:`FIGURES`: one :class:`Figure` per ``results/<name>.txt``, holding
the arms it runs, its timeline, its seed, its renderer and the claims
its runs must show.  ``repro run``, ``repro verify`` and
:func:`figure_specs` all read that table; nothing else spells out an
arm list.

Scenario functions take only JSON-able parameters (arms travel as
their constructor kwargs, ``arm.params()``) and return the experiment's
picklable result payload, so any arm x seed x parameter point can be
described by a :class:`~repro.experiments.runner.RunSpec` and executed
in a worker process.
"""

from __future__ import annotations

import functools
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments import ablations, reporting
from repro.experiments.arm import Arm, Claim
from repro.experiments.fault_exp import (
    FaultArm,
    all_arms as fault_arms,
    run_fault_injection_experiment,
)
from repro.experiments.priority_exp import (
    PriorityArm,
    run_priority_experiment,
    run_priority_propagation,
)
from repro.experiments.reservation_cpu_exp import (
    CpuArm,
    all_arms as cpu_arms,
    run_cpu_reservation_experiment,
)
from repro.experiments.reservation_net_exp import (
    NetworkArm,
    all_arms as network_arms,
    run_network_reservation_experiment,
)
from repro.experiments.route_exp import (
    RouteArm,
    route_arms,
    run_route_experiment,
)
from repro.experiments.runner import (
    RunSpec,
    outlives_collection,
    scenario,
    scenario_function,
)
from repro.pubsub.fig12 import (
    FIG12_CLAIMS,
    PubSubArm,
    fig12_subscriber_counts,
    pubsub_arms,
    render_fig12_pubsub,
    run_pubsub_experiment,
)
from repro.scale.capacity_exp import (
    FIG9_CLAIMS,
    CapacityArm,
    all_arms as capacity_arms,
    fig9_stream_counts,
    render_fig9_capacity,
    run_capacity_experiment,
)
from repro.scale.fig10 import (
    FIG10_CLAIMS,
    ScaleArm,
    fig10_stream_counts,
    render_fig10_scale,
    run_scale_experiment,
    scale_arms,
)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _arm_scenario(arm_type: type, run: Callable[..., Any]
                  ) -> Callable[..., Any]:
    """``run`` as a scenario whose arm arrives as constructor kwargs.

    ``functools.wraps`` keeps ``run``'s signature visible to
    ``inspect.signature``: that is what says which params a spec (or
    ``repro run --set``) may carry.
    """

    @functools.wraps(run)
    def call(arm: Dict[str, Any], seed: int = 1, **kwargs: Any):
        return run(arm_type(**arm), seed=seed, **kwargs)

    return call


#: The scenarios whose arms are :class:`~repro.experiments.arm.Arm`
#: objects: registered name -> (arm class, run function).
ARM_SCENARIOS: Dict[str, Tuple[type, Callable[..., Any]]] = {
    "priority": (PriorityArm, run_priority_experiment),
    "reservation_net": (NetworkArm, run_network_reservation_experiment),
    "reservation_cpu": (CpuArm, run_cpu_reservation_experiment),
    "faults": (FaultArm, run_fault_injection_experiment),
    "route": (RouteArm, run_route_experiment),
    "capacity": (CapacityArm, run_capacity_experiment),
    "scale": (ScaleArm, run_scale_experiment),
    "pubsub": (PubSubArm, run_pubsub_experiment),
}
for _name, (_arm_type, _run) in ARM_SCENARIOS.items():
    scenario(_name)(_arm_scenario(_arm_type, _run))


@scenario("checked")
def _checked(scenario: str, params: Dict[str, Any],
             seed: Optional[int] = None, checks=None):
    """One run of ``scenario`` under ``checks`` (default: its own
    ``default_suite()``, built where it runs).  A violation comes back
    as the payload, not raised, so in a pool of many figures' arms it
    fails only its own figure (:class:`~repro.check.InvariantViolation`
    pickles); so does any other exception the arm raises, as a
    ``crash`` violation naming its type.

    The retention law is checked here too: with the payload and the
    uninstalled suite still held, a collection must free the kernel the
    suite watched (a result is plain data, and an uninstalled suite
    lets go of its world)."""
    from repro.check import InvariantViolation, default_suite

    suite = default_suite() if checks is None else checks
    spec = RunSpec(scenario, {**params, "checks": suite}, seed)
    try:
        payload = scenario_function(scenario)(**spec.call_kwargs())
    except InvariantViolation as violation:
        return violation
    except Exception as exc:  # noqa: BLE001 - a crash fails its own run
        return InvariantViolation("crash", f"{type(exc).__name__}: {exc}",
                                  {"scenario": scenario})
    if suite.watched is None:
        return InvariantViolation(
            "retention", "the suite never watched a kernel",
            {"scenario": scenario})
    if outlives_collection(suite.watched):
        return InvariantViolation(
            "retention", "the run's kernel outlived it with its payload "
            "and suite held", {"scenario": scenario})
    return payload


def _seedless_scenario(run: Callable[..., Any]) -> Callable[..., Any]:
    """``run`` as a scenario that accepts, and ignores, the engine seed:
    fig 2 draws nothing and the ablation arms fix their own RNG seeds."""

    @functools.wraps(run)
    def call(seed: Optional[int] = None, **kwargs: Any):
        return run(**kwargs)

    return call


for _name, _run in (
    ("priority_propagation", run_priority_propagation),
    ("ablation_ecn", ablations.run_ecn_arm),
    ("ablation_phb", ablations.run_phb_arm),
    ("ablation_reserve_policy", ablations.run_reserve_policy_arm),
    ("ablation_priority_driven", ablations.run_priority_driven_arm),
):
    scenario(_name)(_seedless_scenario(_run))


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
class Figure(NamedTuple):
    """One ``results/<name>.txt``: what runs, how it is rendered, and
    what its runs must show."""

    name: str
    #: Registered scenario every arm of the figure runs.
    scenario: str
    #: ``(label, params)`` in output order: the label the renderer
    #: prints and the spec params that pick the arm (``{"arm":
    #: arm.params()}``, or an ablation's own switch).
    arms: Tuple[Tuple[str, Dict[str, Any]], ...]
    #: ``{label: payload}`` (``{label: [payload per point]}`` on a sweep
    #: figure) to the text of the results file.
    renderer: Callable[[Dict[str, Any]], str]
    #: Params shared by every arm: the timeline.
    params: Dict[str, Any] = {}
    #: Param swept per arm (``streams`` / ``subscribers``) and its points.
    sweep: Optional[str] = None
    points: Tuple[int, ...] = ()
    seed: Optional[int] = 1
    #: The paper's findings, each a predicate over what the renderer
    #: takes (evaluated on the whole figure by ``repro verify``).
    claims: Tuple[Claim, ...] = ()

    def specs(self) -> List[RunSpec]:
        """The figure's runs, arm-major, sweep points ascending."""
        sweep = ([{self.sweep: point} for point in self.points]
                 if self.sweep else [{}])
        return [
            RunSpec(self.scenario, {**arm, **point, **self.params},
                    seed=self.seed)
            for _, arm in self.arms for point in sweep
        ]

    def arm_names(self) -> List[str]:
        """What ``repro run --arm`` matches, in arm order: each arm's own
        name, else its label."""
        return [params["arm"]["name"] if "arm" in params else label
                for label, params in self.arms]

    def runs(self, payloads: List[Any]) -> Dict[str, Any]:
        """``payloads`` (in :meth:`specs` order) as the renderer and the
        claims take them: ``{label: payload}``, or ``{label: [payload
        per point]}`` on a sweep figure."""
        labels = [label for label, _ in self.arms]
        if self.sweep is None:
            return dict(zip(labels, payloads))
        width = len(self.points)
        return {label: payloads[index * width:(index + 1) * width]
                for index, label in enumerate(labels)}

    def render(self, payloads: List[Any]) -> str:
        """``payloads`` (in :meth:`specs` order) as the results text."""
        return self.renderer(self.runs(payloads))

    def failed_claims(self, payloads: List[Any]) -> List[str]:
        """The names of the claims ``payloads`` do not bear out."""
        runs = self.runs(payloads)
        return [claim.name for claim in self.claims if not claim.holds(runs)]


def _arms(arms: Sequence[Arm], labels: Sequence[str] = ()
          ) -> Tuple[Tuple[str, Dict[str, Any]], ...]:
    """``arms`` as figure entries, labelled by name unless told otherwise."""
    labels = labels or [arm.name for arm in arms]
    return tuple((label, {"arm": arm.params()})
                 for label, arm in zip(labels, arms))


_PRIORITY_TIMELINE = {"duration": 30.0}
_NET_TIMELINE = {"duration": 300.0, "load_start": 60.0, "load_end": 120.0}

FIGURES: Dict[str, Figure] = {figure.name: figure for figure in (
    Figure("fig2_priority_propagation", "priority_propagation",
           (("corba-100", {}),), reporting.fig2_text, seed=None,
           claims=reporting.FIG2_CLAIMS),
    Figure("fig4_control_runs", "priority",
           _arms([PriorityArm.figure4a(), PriorityArm.figure4b()],
                 ["fig4a (idle)", "fig4b (16 Mbps cross)"]),
           reporting.fig4_text, _PRIORITY_TIMELINE,
           claims=reporting.FIG4_CLAIMS),
    Figure("fig5_thread_priority", "priority",
           _arms([PriorityArm.figure5a(), PriorityArm.figure5b()],
                 ["fig5a (CPU load)", "fig5b (CPU load + congestion)"]),
           reporting.latency_text, _PRIORITY_TIMELINE,
           claims=reporting.FIG5_CLAIMS),
    Figure("fig6_combined_priority", "priority",
           _arms([PriorityArm.figure5b(), PriorityArm.figure6()],
                 ["fig5b (threads only)", "fig6 (threads + DSCP)"]),
           reporting.latency_text, _PRIORITY_TIMELINE,
           claims=reporting.FIG6_CLAIMS),
    Figure("fig7_frame_delivery", "reservation_net",
           _arms([NetworkArm("1-none", None, False),
                  NetworkArm("5-partial-filtering", "partial", True),
                  NetworkArm("3-full", "full", False)],
                 ["no adaptation", "partial resv + frame filtering",
                  "full reservation"]),
           reporting.fig7_text, _NET_TIMELINE,
           claims=reporting.FIG7_CLAIMS),
    Figure("fig8_fault_adaptation", "faults", _arms(fault_arms()),
           reporting.fig8_text, {"duration": 120.0},
           claims=reporting.FIG8_CLAIMS),
    Figure("fig9_capacity", "capacity", _arms(capacity_arms()),
           render_fig9_capacity, {"duration": 12.0},
           "streams", tuple(fig9_stream_counts()), claims=FIG9_CLAIMS),
    Figure("fig10_scale", "scale", _arms(scale_arms()),
           render_fig10_scale, {"duration": 8.0, "fluid": True},
           "streams", tuple(fig10_stream_counts()), claims=FIG10_CLAIMS),
    Figure("fig11_route", "route", _arms(route_arms()),
           reporting.fig11_text, {"routers": 56, "duration": 40.0},
           claims=reporting.FIG11_CLAIMS),
    Figure("fig12_pubsub", "pubsub", _arms(pubsub_arms()),
           render_fig12_pubsub, {"duration": 8.0},
           "subscribers", tuple(fig12_subscriber_counts()),
           claims=FIG12_CLAIMS),
    Figure("table1_network_reservation", "reservation_net",
           _arms(network_arms()), reporting.table1_text, _NET_TIMELINE,
           claims=reporting.TABLE1_CLAIMS),
    Figure("table2_cpu_reservation", "reservation_cpu",
           _arms(cpu_arms()), reporting.table2_text, {"duration": 120.0},
           claims=reporting.TABLE2_CLAIMS),
    Figure("ablation_ecn", "ablation_ecn",
           (("tail-drop FIFO", {"use_red": False}),
            ("RED + ECN", {"use_red": True})),
           reporting.ablation_ecn_text, seed=None,
           claims=reporting.ABLATION_ECN_CLAIMS),
    Figure("ablation_phb", "ablation_phb",
           (("FIFO", {"diffserv": False}),
            ("DiffServ strict-priority", {"diffserv": True})),
           reporting.ablation_phb_text, seed=None,
           claims=reporting.ABLATION_PHB_CLAIMS),
    Figure("ablation_reserve_policy", "ablation_reserve_policy",
           (("HARD", {"policy": "HARD"}), ("SOFT", {"policy": "SOFT"})),
           reporting.ablation_reserve_policy_text, seed=None,
           claims=reporting.ABLATION_RESERVE_POLICY_CLAIMS),
    Figure("ablation_priority_driven_reservation", "ablation_priority_driven",
           (("arrival order", {"priority_driven": False}),
            ("priority order", {"priority_driven": True})),
           reporting.ablation_priority_driven_text, seed=None,
           claims=reporting.ABLATION_PRIORITY_DRIVEN_CLAIMS),
)}


def figure_specs() -> Dict[str, List[RunSpec]]:
    """Every figure/table as its canonical list of RunSpecs."""
    return {name: figure.specs() for name, figure in FIGURES.items()}
