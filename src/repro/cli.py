"""Command-line experiment runner: ``python -m repro <verb>``.

``run`` regenerates any figure of the table in
:mod:`repro.experiments.scenario_registry`; with no ``--arm`` / ``--set``
its stdout is byte-for-byte ``results/<figure>.txt``.  ``verify`` runs
figures once under the invariant suite and checks each rendering
against ``results/`` and each of the figure's claims.  ``soak`` runs
the randomized invariant campaign and ``trace`` a scenario under the
structured tracer.

Independent simulation arms fan out across a process pool (``--jobs``)
and completed runs are served from the on-disk result cache; both are
wired through :mod:`repro.experiments.runner`, so results are
bit-identical at any worker count.

Examples::

    python -m repro run fig4
    python -m repro --jobs 4 run table1 --arm 3-full --set duration=120
    python -m repro run fig9 --set streams=4,8 --set duration=10
    python -m repro run fig10 --set fluid=false --set streams=32
    python -m repro --jobs 4 verify
    python -m repro verify fig4 ablation_ecn
    python -m repro soak --seed 1 --runs 8 --duration 3
    python -m repro trace --scenario quickstart
    python -m repro trace --scenario table1 --arm 2-partial --set duration=30
"""

from __future__ import annotations

import argparse
import inspect
import json
import pathlib
import sys
from typing import Any, List, Optional, Tuple

from repro.check import InvariantViolation
from repro.experiments.runner import (
    ExperimentRunner, RunSpec, registered_scenarios, scenario_function)
from repro.experiments.scenario_registry import FIGURES, Figure
from repro.faults.plan import FaultPlanError
from repro.obs import LAYERS, JsonlSink, LatencyBreakdown, Tracer

#: Scenario parameters ``--set`` may not touch: the global ``--seed``
#: and the two that carry live objects, not JSON values.
_NOT_SETTABLE = ("seed", "checks", "tracer")


def resolve_figure(word: str) -> Figure:
    """The figure named ``word``: a results-file stem or a unique prefix."""
    if word in FIGURES:
        return FIGURES[word]
    matches = [name for name in FIGURES if name.startswith(word)]
    if len(matches) == 1:
        return FIGURES[matches[0]]
    problem = "ambiguous" if matches else "unknown"
    raise SystemExit(f"{problem} figure {word!r}; choose from: "
                     f"{', '.join(matches or FIGURES)}")


def resolve_traceable(word: str) -> Figure:
    """What ``trace --scenario`` names: a figure, else a registered
    scenario that runs on its defaults, as a one-arm figure (seeded, by
    ``--seed``, if it takes one)."""
    if (not any(name.startswith(word) for name in FIGURES)
            and word in registered_scenarios()):
        accepted = inspect.signature(scenario_function(word)).parameters
        if all(param.default is not param.empty
               for param in accepted.values()):
            return Figure(word, word, ((word, {}),), renderer=None,
                          seed=1 if "seed" in accepted else None)
    return resolve_figure(word)


def select(figure: Figure, arms: List[str], settings: List[str],
           seed: int) -> Figure:
    """``figure`` narrowed to ``--arm`` names, with ``--set`` applied."""
    if arms:
        names = figure.arm_names()
        for name in arms:
            if name not in names:
                raise SystemExit(f"unknown arm {name!r} for {figure.name}; "
                                 f"choose from: {', '.join(names)}")
        figure = figure._replace(arms=tuple(
            entry for entry, name in zip(figure.arms, names) if name in arms))
    # What the scenario function accepts, less what tells arms apart.
    accepted = inspect.signature(
        scenario_function(figure.scenario)).parameters
    settable = [key for key in accepted if key not in _NOT_SETTABLE
                and not any(key in arm for _, arm in figure.arms)]
    params = dict(figure.params)
    for setting in settings:
        key, equals, text = setting.partition("=")
        if not equals or key not in settable:
            problem = "unknown --set key" if equals else "malformed --set"
            raise SystemExit(
                f"{problem} {setting!r} for {figure.name}; expected "
                f"KEY=VALUE with KEY one of: {', '.join(settable) or '(none)'}")
        if key == figure.sweep:
            figure = figure._replace(points=_sweep_points(setting, text))
        else:
            params[key] = _value(setting, text, accepted[key].default)
    if figure.seed is not None:
        figure = figure._replace(seed=seed)
    return figure._replace(params=params)


def _sweep_points(setting: str, text: str) -> Tuple[int, ...]:
    try:
        points = sorted({int(part) for part in text.split(",")})
    except ValueError:
        points = []
    if not points or points[0] < 1:
        raise SystemExit(f"bad --set {setting!r}: expected a comma-separated "
                         "list of positive counts")
    return tuple(points)


def _value(setting: str, text: str, default: Any) -> Any:
    """``text`` as JSON (else a string), of the kind ``default`` is."""
    try:
        value = json.loads(text)
    except ValueError:
        value = text
    kind = type(default)
    if kind in (int, float):
        fits = type(value) in (int, float)
    elif kind in (bool, str):
        fits = type(value) is kind
    else:  # no default, or None: any JSON value
        fits = True
    if not fits:
        raise SystemExit(f"bad --set {setting!r}: expected a "
                         f"{kind.__name__} (default {default!r})")
    return value


def _cmd_run(args: argparse.Namespace) -> int:
    """Regenerate one figure (or a slice of it) and print its rendering."""
    figure = select(resolve_figure(args.figure), args.arm, args.set,
                    args.seed)
    specs = figure.specs()
    print(f"running {figure.name}: {len(specs)} run(s) ...", file=sys.stderr)
    runner = ExperimentRunner(
        jobs=args.jobs, cache=not args.no_cache)
    try:
        payloads = runner.payloads(specs)
    except FaultPlanError as exc:
        raise SystemExit(f"bad fault_plan: {exc}") from None
    print(figure.render(payloads))
    return 0


def _first_difference(rendered: str, committed: str) -> str:
    """Where ``rendered`` first departs from ``committed``."""
    ours, theirs = rendered.splitlines(), committed.splitlines()
    for number, (line, expected) in enumerate(zip(ours, theirs), start=1):
        if line != expected:
            return f"line {number}: {line!r} != {expected!r}"
    if len(ours) < len(theirs):
        return f"line {len(ours) + 1}: the rendering ends there"
    if len(ours) > len(theirs):
        return f"line {len(theirs) + 1}: the results file ends there"
    return "the line endings"


def _cmd_verify(args: argparse.Namespace) -> int:
    """Run each figure once under the invariant suite; check its
    rendering against ``results/`` and its claims."""
    figures = ([resolve_figure(word) for word in args.figures]
               or list(FIGURES.values()))
    # Every figure's arms in one pool pass, so the pool never drains
    # between figures; each arm builds its own suite where it runs (the
    # "checked" scenario), and the cache is off so every arm runs.
    specs = {figure.name: figure.specs() for figure in figures}
    runner = ExperimentRunner(jobs=args.jobs, cache=False)
    payloads = iter(runner.payloads([
        RunSpec("checked", {"scenario": spec.scenario, "params": spec.params},
                spec.seed)
        for figure in figures for spec in specs[figure.name]]))
    failed = 0
    for figure in figures:
        runs = [next(payloads) for _ in specs[figure.name]]
        violations = [run for run in runs
                      if isinstance(run, InvariantViolation)]
        if violations:
            problems = [f"invariant violated: {violations[0]}"]
        else:
            problems = [f"claim does not hold: {name}"
                        for name in figure.failed_claims(runs)]
            path = pathlib.Path("results") / f"{figure.name}.txt"
            rendered = figure.render(runs) + "\n"
            committed = (path.read_text(encoding="utf-8")
                         if path.is_file() else None)
            if committed is None:
                problems.append(f"no {path}")
            elif rendered != committed:
                problems.append(f"differs from {path} at "
                                f"{_first_difference(rendered, committed)}")
        if problems:
            failed += 1
            print(f"FAIL {figure.name}")
            for problem in problems:
                print(f"  {problem}")
        else:
            print(f"ok   {figure.name}: {len(runs)} run(s), "
                  f"{len(figure.claims)} claim(s)")
    if failed:
        print(f"verify FAILED: {failed}/{len(figures)} figure(s)")
        return 1
    print(f"verify clean: {len(figures)} figure(s)")
    return 0


def _reconciliations(result: Any, breakdown) -> List[Tuple[str, float, float]]:
    """``(what, trace mean, endpoint mean)`` rows, chosen by what the
    payload is: a GIOP latency result reconciles the ``to_servant`` stage
    with its per-sender stats, a one-stream result or the UAV pipeline's
    receivers the per-flow frame latency with the delivery recorder."""
    rows = []
    if hasattr(result, "latency") and hasattr(result, "stats"):
        stage_stats = breakdown.stage_stats()
        for sender in result.latency:
            key = f"video{sender[-1]}/sink"
            if "to_servant" in stage_stats.get(key, {}):
                rows.append((key, stage_stats[key]["to_servant"].mean,
                             result.stats(sender).mean))
        return rows
    if isinstance(result, dict):
        flows = [(receiver["flow"], receiver["latency"])
                 for receiver in result.get("receivers", {}).values()]
    else:
        delivery = getattr(result, "sender_delivery", None)
        flows = ([] if delivery is None
                 else [(result.flow_id, delivery.latency.stats())])
    frame_stats = breakdown.frame_stats()
    for flow, endpoint in flows:
        if flow in frame_stats:
            rows.append((flow, frame_stats[flow].mean, endpoint.mean))
    return rows


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one arm with tracing on; write JSONL and a breakdown."""
    layers = None
    if args.layers is not None:
        layers = [layer.strip() for layer in args.layers.split(",")
                  if layer.strip()]
        unknown = [layer for layer in layers if layer not in LAYERS]
        if unknown:
            print(f"repro trace: error: unknown layer(s) "
                  f"{', '.join(unknown)}; choose from: {','.join(LAYERS)}",
                  file=sys.stderr)
            return 2

    # One run, in this process: a live tracer does not cross the
    # runner's process boundary.
    figure = resolve_traceable(args.scenario)
    specs = select(figure, args.arm, args.set, args.seed).specs()
    if len(specs) != 1:
        names = ", ".join(figure.arm_names())
        point = (f" and --set {figure.sweep}=N" if figure.sweep else "")
        raise SystemExit(
            f"trace runs one arm but this selects {len(specs)} of "
            f"{figure.name}; narrow it with --arm NAME{point}; arms: {names}")
    breakdown = LatencyBreakdown()
    sinks = [breakdown]
    jsonl: Optional[JsonlSink] = None
    if args.output is not None:
        try:
            jsonl = JsonlSink(args.output)
        except (OSError, ValueError) as exc:
            print(f"repro trace: error: {exc}", file=sys.stderr)
            return 2
        sinks.append(jsonl)
    tracer = Tracer(sinks=sinks, layers=layers)

    print(f"tracing {figure.name} ...", file=sys.stderr)
    try:
        # A run that raises part-way still leaves every record emitted
        # before the raise in a flushed, closed file.
        result = scenario_function(figure.scenario)(
            **specs[0].call_kwargs(), tracer=tracer)
    except FaultPlanError as exc:
        raise SystemExit(f"bad fault_plan: {exc}") from None
    finally:
        tracer.close()
    if not args.quiet:
        # The trace-derived means must agree with what the endpoint
        # recorders measured.
        for what, trace_mean, endpoint_mean in _reconciliations(
                result, breakdown):
            print(f"reconcile {what}: trace mean "
                  f"{trace_mean * 1e3:.6f} ms vs endpoint "
                  f"{endpoint_mean * 1e3:.6f} ms "
                  f"(|diff| {abs(trace_mean - endpoint_mean):.2e} s)")

    print(file=sys.stderr)
    total = tracer.records_emitted
    by_layer: dict = {}
    for (layer, _kind), count in tracer.counts.items():
        by_layer[layer] = by_layer.get(layer, 0) + count
    summary = ", ".join(f"{layer}={count}"
                        for layer, count in sorted(by_layer.items()))
    print(f"emitted {total} trace records ({summary})", file=sys.stderr)
    if jsonl is not None:
        print(f"wrote {jsonl.records_written} records to {args.output}",
              file=sys.stderr)
    print()
    print(breakdown.render())
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    """Randomized invariant soak: random figure points under the
    checkers."""
    from repro.experiments.soak import run_soak, run_soak_case

    if args.replay is not None:
        try:
            case = json.loads(args.replay)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"bad --replay JSON: {exc}")
        print(f"replaying case {case.get('index', '?')} "
              f"(seed {case.get('seed', '?')}) ...", file=sys.stderr)
        try:
            verdict = run_soak_case(case)
        except KeyError as exc:
            raise SystemExit(f"bad --replay case: no {exc} key") from None
        except ValueError as exc:
            raise SystemExit(f"bad --replay case: {exc}") from None
        if verdict["ok"]:
            print(f"replay clean: {verdict['events']} events, "
                  f"{verdict['checked']} records checked")
            return 0
        print(f"replay FAILED ({verdict['failure']}): "
              f"{verdict['message']}")
        return 1

    report = run_soak(
        root_seed=args.seed, runs=args.runs, duration=args.duration,
        jobs=args.jobs, shrink=not args.no_shrink,
        emit=lambda line: print(line, file=sys.stderr))
    for entry in report["failures"]:
        print()
        print(f"case {entry['case']['index']} FAILED "
              f"({entry['failure']}"
              + (f", checker {entry['checker']}" if entry["checker"] else "")
              + f"): {entry['message']}")
        print(f"  minimal reproducer: {json.dumps(entry['shrunk'], sort_keys=True)}")
        print(f"  replay: {entry['replay']}")
    if report["ok"]:
        print(f"soak clean: {report['runs']} cases, "
              f"{report['events']} events, 0 violations")
        return 0
    print(f"\nsoak FAILED: {len(report['failures'])}/{report['runs']} "
          f"cases violated an invariant")
    return 1


def _add_selection_options(p: argparse.ArgumentParser) -> None:
    """``--arm`` and ``--set``: how ``run`` and ``trace`` narrow a figure."""
    p.add_argument("--arm", action="append", default=[], metavar="NAME",
                   help="run only this arm (repeatable); default: all")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a scenario parameter on every arm "
                        "(repeatable; VALUE is JSON, else a string; a comma "
                        "list on the figure's sweep axis replaces it, e.g. "
                        "streams=4,8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's experiments from the command line.",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="root random seed (default 1)")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes for independent arms "
                             "(default: the CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every arm, ignoring the on-disk "
                             "result cache")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run",
        help="regenerate one figure or table; prints the bytes of "
             "results/<figure>.txt",
        epilog="figures: " + ", ".join(FIGURES),
    )
    p.add_argument("figure", metavar="FIGURE",
                   help="a results-file stem or a unique prefix of one "
                        "(fig4, table1, ablation_ecn)")
    _add_selection_options(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "verify",
        help="run figures once under the invariant suite; check each "
             "rendering against results/ and each of the figure's claims",
        epilog="figures: " + ", ".join(FIGURES),
    )
    p.add_argument("figures", nargs="*", metavar="FIGURE",
                   help="results-file stems or unique prefixes; default: "
                        "every figure")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "soak",
        help="randomized invariant soak: run random figure x arm x sweep "
             "point x fault configs under the runtime checkers",
    )
    p.add_argument("--runs", type=int, default=20,
                   help="number of random cases to run (default 20)")
    p.add_argument("--duration", type=float, default=6.0,
                   help="simulated seconds per case (default 6)")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip minimizing failing cases")
    p.add_argument("--replay", default=None, metavar="JSON",
                   help="re-run one exact case from its JSON form "
                        "(as printed by a failure report)")
    # Also accepted after the subcommand (replay commands read
    # naturally as `repro soak --seed S ...`); SUPPRESS keeps the
    # global pre-subcommand values when these are omitted.
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="root seed deriving every case (default 1)")
    p.add_argument("-j", "--jobs", type=int, default=argparse.SUPPRESS,
                   help="worker processes (default: auto)")
    p.set_defaults(func=_cmd_soak)

    p = sub.add_parser(
        "trace",
        help="run one arm with structured tracing and report a "
             "latency breakdown",
        epilog="figures: " + ", ".join(FIGURES),
    )
    p.add_argument("--scenario", default="quickstart", metavar="NAME",
                   help="a figure as `run` names it, else a registered "
                        "scenario (quickstart, the default; uav); --arm / "
                        "--set must narrow a figure to one run")
    _add_selection_options(p)
    p.add_argument("-o", "--output", default=None,
                   help="write the trace as JSON Lines to this path; "
                        "without it only the breakdown sees the records")
    p.add_argument("--layers", default=None,
                   help="comma-separated layer allow-list "
                        f"({','.join(LAYERS)}); default: all")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the reconciliation lines")
    p.set_defaults(func=_cmd_trace)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)

