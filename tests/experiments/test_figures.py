"""The figure table and the verbs that read it.

``scenario_registry.FIGURES`` is the only place a figure is declared;
these tests hold it to the committed ``results/`` directory, to its
claims and to the scenario signatures, hold ``repro run`` to the bytes
of the results files, and hold ``repro verify`` to failing on a changed
byte, a broken claim or a violated invariant.
"""

import inspect
import pathlib
import pickle
import shutil

import pytest

import repro.check
from repro.check import InvariantChecker
from repro.cli import build_parser, main, resolve_figure, select
from repro.experiments.arm import Arm
from repro.experiments.fault_exp import FaultArm
from repro.experiments.priority_exp import PriorityArm
from repro.experiments.reservation_cpu_exp import CpuArm
from repro.experiments.reservation_net_exp import NetworkArm
from repro.experiments.route_exp import RouteArm
from repro.experiments import runner as runner_mod
from repro.experiments.runner import registered_scenarios, scenario_function
from repro.experiments.scenario_registry import FIGURES, figure_specs
from repro.pubsub.fig12 import PubSubArm
from repro.scale.capacity_exp import CapacityArm
from repro.scale.fig10 import ScaleArm

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Cheap enough for tier-1 (under 3 s together); CI's ``verify`` job
#: holds all 16 figures to the same equality.
CHEAP_FIGURES = [
    "ablation_ecn", "ablation_phb", "ablation_reserve_policy",
    "ablation_priority_driven_reservation", "fig2_priority_propagation",
    "fig10_scale",
]


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def test_one_figure_per_results_file():
    committed = {path.stem for path in (ROOT / "results").glob("*.txt")}
    assert set(FIGURES) == committed
    assert all(figure.name == name for name, figure in FIGURES.items())


def test_every_figure_states_a_claim():
    for name, figure in FIGURES.items():
        assert figure.claims, name
        assert all(claim.name and callable(claim.holds)
                   for claim in figure.claims), name


def test_every_spec_is_callable_as_written():
    known = registered_scenarios()
    for name, specs in figure_specs().items():
        assert specs, name
        for spec in specs:
            assert spec.scenario in known, (name, spec.scenario)
            accepted = inspect.signature(
                scenario_function(spec.scenario)).parameters
            assert set(spec.params) <= set(accepted), (name, spec.params)


def test_specs_are_arm_major_and_render_regroups_them():
    figure = FIGURES["fig9_capacity"]
    specs = figure.specs()
    assert len(specs) == len(figure.arms) * len(figure.points)
    assert [spec.params["streams"] for spec in specs[:len(figure.points)]
            ] == list(figure.points)
    seen = {}
    echo = figure._replace(renderer=lambda runs: seen.update(runs) or "")
    echo.render(list(range(len(specs))))
    assert list(seen) == [label for label, _ in figure.arms]
    assert seen["priority"] == list(range(7, 14))


# ----------------------------------------------------------------------
# Arms: one field list, stable pickles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("arm", [
    PriorityArm.figure6(),
    NetworkArm("5-partial-filtering", "partial", True),
    CpuArm.load_reserve(),
    FaultArm("adaptive", True),
    RouteArm("dynamic-resignal", True, True),
    CapacityArm("adaptive", priorities=True, admission=True, adaptation=True),
    ScaleArm("adaptive", admission=True, adaptation=True),
    PubSubArm("adaptive", adaptive=True),
], ids=lambda arm: type(arm).__name__)
def test_arm_round_trips_through_params_and_pickle(arm):
    assert isinstance(arm, Arm)
    assert list(arm.params())[0] == "name"
    assert type(arm)(**arm.params()) == arm
    # "adaptive" is both an arm name and a field name: the case whose
    # dict-state pickle grew by 9 bytes after crossing a worker.
    blob = pickle.dumps(arm)
    clone = pickle.loads(blob)
    assert clone == arm and pickle.dumps(clone) == blob


# ----------------------------------------------------------------------
# repro run: stdout is the results file
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CHEAP_FIGURES)
def test_run_prints_the_bytes_of_the_results_file(name, capsys):
    assert main(["--no-cache", "--jobs", "1", "run", name]) == 0
    committed = (ROOT / "results" / f"{name}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == committed


# ----------------------------------------------------------------------
# repro verify: one pass under the suite, against results/ and claims
# ----------------------------------------------------------------------
#: The figures tier-1 verifies: together about as cheap as one fig 10.
VERIFIED = ["ablation_ecn", "ablation_phb", "ablation_reserve_policy",
            "ablation_priority_driven_reservation", "fig2"]


def test_verify_passes_the_cheap_figures(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["verify", *VERIFIED]) == 0
    out = capsys.readouterr().out
    assert out.count("\nok ") + out.startswith("ok ") == len(VERIFIED)
    assert out.endswith(f"verify clean: {len(VERIFIED)} figure(s)\n")


def test_verify_fails_on_one_changed_byte(tmp_path, capsys, monkeypatch):
    name = "fig2_priority_propagation"
    shutil.copytree(ROOT / "results", tmp_path / "results")
    path = tmp_path / "results" / f"{name}.txt"
    committed = path.read_text(encoding="utf-8")
    changed = committed.replace("| 136 ", "| 137 ", 1)
    assert len(changed) == len(committed) and changed != committed
    path.write_text(changed, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["--jobs", "1", "verify", name]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {name}\n" in out
    assert f"differs from results/{name}.txt at line 5:" in out
    assert path.read_text(encoding="utf-8") == changed  # verify writes nothing
    assert "claim does not hold" not in out


def test_verify_fails_on_a_claim_that_does_not_hold(capsys, monkeypatch):
    figure = FIGURES["fig2_priority_propagation"]
    first, *rest = figure.claims
    monkeypatch.setitem(FIGURES, figure.name, figure._replace(
        claims=(first._replace(holds=lambda runs: False), *rest)))
    monkeypatch.chdir(ROOT)
    assert main(["--jobs", "1", "verify", "fig2"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL {figure.name}\n  claim does not hold: {first.name}\n" in out
    assert "differs" not in out
    assert "verify FAILED: 1/1 figure(s)" in out


class _Refuses(InvariantChecker):
    """Fails every run at teardown: proof the suite is installed."""

    name = "refuses"
    layers = ()

    def final_check(self):
        self.fail("planted teardown failure")


class _RefusesWork(InvariantChecker):
    """Fails at the first ``os`` ``work`` record.  Only ``CPU.submit``
    emits one, and the ECN ablation's first submit is made by an ORB
    worker, the body of a sim ``Process``: the violation is raised
    inside it."""

    name = "refuses-work"
    layers = ("os",)
    kinds = frozenset(("work",))

    def on_event(self, record):
        self.fail("planted per-record failure")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_runs_every_arm_under_the_suite(jobs, capsys, monkeypatch):
    """A violation at teardown, and one raised under a process (which
    once reached the checked scenario wrapped in ``ProcessError`` and
    aborted ``verify``), each fail the figure."""
    suite = repro.check.default_suite
    monkeypatch.chdir(ROOT)
    for checker, figure, message in (
            (_Refuses, "ablation_reserve_policy",
             "[refuses] planted teardown failure"),
            (_RefusesWork, "ablation_ecn",
             "[refuses-work] planted per-record failure")):
        def planted(checker=checker):
            checks = suite()
            checks.checkers.append(checker())
            return checks

        monkeypatch.setattr(repro.check, "default_suite", planted)
        # Two arms: at --jobs 2 the violation crosses back from a worker.
        assert main(["--jobs", jobs, "verify", figure]) == 1
        out = capsys.readouterr().out
        assert f"FAIL {figure}\n  invariant violated: {message}" in out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_red_arm_fails_only_its_own_figure(jobs, capsys, monkeypatch):
    """Both figures' arms run in one pass; the planted violation in
    ablation_phb comes back as that arm's payload, not as an exception
    that would take ablation_ecn down with it."""
    phb = scenario_function("ablation_phb")

    def planted(checks=None, **kwargs):
        checks.checkers.append(_Refuses())
        return phb(checks=checks, **kwargs)

    monkeypatch.setitem(runner_mod._SCENARIOS, "ablation_phb", planted)
    monkeypatch.chdir(ROOT)
    assert main(["--jobs", jobs, "verify", "ablation_phb",
                 "ablation_ecn"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL ablation_phb\n  invariant violated: [refuses] "
            "planted teardown failure") in out
    assert "ok   ablation_ecn: 2 run(s)" in out
    assert out.endswith("verify FAILED: 1/2 figure(s)\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_crashing_arm_fails_only_its_own_figure(jobs, capsys, monkeypatch):
    """An arm that raises something other than a violation comes back as
    a ``crash`` violation, so the pool pass still reports the other
    figure."""
    phb = scenario_function("ablation_phb")

    def crashing(diffserv, **kwargs):
        if diffserv:
            raise RuntimeError("planted crash")
        return phb(diffserv=diffserv, **kwargs)

    monkeypatch.setitem(runner_mod._SCENARIOS, "ablation_phb", crashing)
    monkeypatch.chdir(ROOT)
    assert main(["--jobs", jobs, "verify", "ablation_phb",
                 "ablation_ecn"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL ablation_phb\n  invariant violated: [crash] "
            "RuntimeError: planted crash") in out
    assert "ok   ablation_ecn: 2 run(s)" in out
    assert out.endswith("verify FAILED: 1/2 figure(s)\n")


def test_cli_table1_single_arm(capsys):
    assert main([
        "--no-cache", "run", "table1", "--arm", "3-full",
        "--set", "duration=20", "--set", "load_start=5",
        "--set", "load_end=15",
    ]) == 0
    out = capsys.readouterr().out
    assert "3-full" in out
    assert "1-none" not in out


def test_cli_fig4_runs_end_to_end(capsys):
    assert main(["--no-cache", "run", "fig4", "--set", "duration=3"]) == 0
    out = capsys.readouterr().out
    assert "fig4a (idle)" in out
    assert "sender1" in out
    assert "fig4b sender1 latency (binned mean)" in out


def test_cli_table2_runs_end_to_end(capsys):
    assert main(["--no-cache", "run", "table2", "--set", "duration=10"]) == 0
    out = capsys.readouterr().out
    for algorithm in ("Kirsch", "Prewitt", "Sobel"):
        assert algorithm in out


def test_cli_fig7_cumulative_output(capsys):
    assert main([
        "--no-cache", "run", "fig7", "--arm", "3-full",
        "--set", "duration=30", "--set", "load_start=5",
        "--set", "load_end=15",
    ]) == 0
    out = capsys.readouterr().out
    assert "Fig 7 — full reservation" in out
    assert "sent  received" in out
    assert out.count("t=") == 16  # the bin width follows the timeline


# ----------------------------------------------------------------------
# repro run: input from outside stays checked
# ----------------------------------------------------------------------
def test_parser_knows_all_commands():
    parser = build_parser()
    for argv in (["run", "fig4"], ["soak"], ["trace"]):
        assert callable(parser.parse_args(argv).func)


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_figure_prefix_resolution():
    assert resolve_figure("fig4").name == "fig4_control_runs"
    assert resolve_figure("table1").name == "table1_network_reservation"
    assert resolve_figure("ablation_ecn").name == "ablation_ecn"
    with pytest.raises(SystemExit, match="ambiguous.*fig10_scale, "
                                         "fig11_route, fig12_pubsub"):
        resolve_figure("fig1")
    with pytest.raises(SystemExit, match="unknown figure.*fig4_control_runs"):
        resolve_figure("fig99")


def test_cli_unknown_arm_rejected():
    with pytest.raises(SystemExit, match="unknown arm.*choose from: 1-none"):
        main(["run", "table1", "--set", "duration=5", "--arm", "nonsense"])


@pytest.mark.parametrize("setting, message", [
    ("routers=12", "unknown --set key.*one of: duration, load_start"),
    ("arm=x", "unknown --set key"),
    ("duration", "malformed --set.*one of: duration, load_start"),
    ("duration=soon", "expected a float"),
])
def test_bad_set_is_rejected_with_the_choices(setting, message):
    with pytest.raises(SystemExit, match=message):
        main(["run", "table1", "--set", setting])


_FLAP = '"at": 1, "duration": 1'


@pytest.mark.parametrize("event, message", [
    ('{"kind": "meteor", "at": 1}',
     "fault meteor: unknown fault kind 'meteor'; choose from: link_degrade, "
     "link_down, link_flap, loss_burst, node_crash, resv_loss$"),
    ('{"kind": "reserve_revoke", "reserve": "atr", "at": 1}',
     "unknown fault kind 'reserve_revoke'"),
    ('{"kind": "link_flap", "link": ["nosuch", "router"], ' + _FLAP + '}',
     "fault link_flap:nosuch-router: no such link; "
     "choose from: router-dst, src-router$"),
    ('{"kind": "node_crash", "node": "rtr", ' + _FLAP + '}',
     "fault node_crash:rtr: no such node; choose from: dst, router, src$"),
], ids=["kind", "reserve_revoke", "link", "node"])
@pytest.mark.parametrize("verb", [
    ["--no-cache", "run", "fig8"],
    ["trace", "--quiet", "--scenario", "fig8"],
], ids=["run", "trace"])
def test_bad_fault_plan_exits_with_one_line(verb, event, message):
    with pytest.raises(SystemExit, match=message) as exit_info:
        main([*verb, "--arm", "static", "--set", "duration=2",
              "--set", f"fault_plan=[{event}]"])
    assert str(exit_info.value).startswith("bad fault_plan: fault ")
    assert "\n" not in str(exit_info.value)


def test_ablation_arms_are_chosen_with_arm_not_set():
    with pytest.raises(SystemExit, match="unknown --set key"):
        main(["run", "ablation_ecn", "--set", "use_red=true"])
    chosen = select(FIGURES["ablation_ecn"], ["RED + ECN"], [], seed=7)
    (spec,) = chosen.specs()
    assert spec.params == {"use_red": True} and spec.seed is None


def test_set_on_the_sweep_axis_replaces_it():
    figure = FIGURES["fig9_capacity"]
    two = select(figure, [], ["streams=8,4", "duration=10"], seed=1).specs()
    assert len(two) == 2 * len(figure.arms)
    assert [spec.params["streams"] for spec in two[:2]] == [4, 8]
    assert all(spec.params["duration"] == 10 for spec in two)
    one = select(figure, ["adaptive"], ["streams=4"], seed=3).specs()
    assert [(spec.params["arm"]["name"], spec.params["streams"], spec.seed)
            for spec in one] == [("adaptive", 4, 3)]
    for bad in ("streams=0", "streams=4,x", "streams="):
        with pytest.raises(SystemExit, match="positive counts"):
            select(figure, [], [bad], seed=1)


def test_set_fluid_false_is_the_packet_level_run():
    specs = select(FIGURES["fig10_scale"], ["reserves"],
                   ["fluid=false", "streams=32"], seed=1).specs()
    assert [spec.params["fluid"] for spec in specs] == [False]
    with pytest.raises(SystemExit, match="expected a bool"):
        select(FIGURES["fig10_scale"], [], ["fluid=0"], seed=1)


def test_selection_runs_a_repeated_arm_once_and_leaves_the_table_alone():
    before = figure_specs()
    chosen = select(FIGURES["table1_network_reservation"],
                    ["3-full", "1-none", "3-full"], ["duration=20"], seed=9)
    assert [spec.params["arm"]["name"] for spec in chosen.specs()] == [
        "1-none", "3-full"]  # table order, each once
    assert figure_specs() == before
