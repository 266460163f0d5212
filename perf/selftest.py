"""Fast self-test of the benchmark's own bookkeeping (well under 20 s).

    python3 perf/selftest.py

Not collected by tier-1 (``testpaths = ["tests"]``).  It checks what
would otherwise fail silently: a new package vanishing into ``stdlib``,
the pinned arm lists drifting away from the figures, BENCHMARK.json
naming metrics or workloads ``run.py`` does not report, the speed
normalisation's arithmetic, and a workload whose specs no longer build
or run.
"""

from __future__ import annotations

import json
import os
import sys

import layers
import reference
import run
import workloads


def check_layer_map_covers_every_package() -> None:
    on_disk = sorted(
        entry for entry in os.listdir(layers.PACKAGE_ROOT)
        if os.path.isfile(os.path.join(layers.PACKAGE_ROOT, entry,
                                       "__init__.py")))
    unmapped = [name for name in on_disk if name not in layers.LAYERS]
    assert not unmapped, f"packages without a layer: {unmapped}"
    gone = [name for name in layers.PACKAGE_LAYERS if name not in on_disk]
    assert not gone, f"layers without a package: {gone}"

    def code_at(*parts: str):
        return compile("", os.path.join(layers.PACKAGE_ROOT, *parts), "exec")

    assert layers.layer_of(code_at("net", "routing.py")) == "routing"
    assert layers.layer_of(code_at("net", "link.py")) == "net"
    assert layers.layer_of(code_at("cli.py")) == "experiments"
    assert layers.layer_of(compile("", __file__, "exec")) == "stdlib"
    assert layers.layer_of("<built-in method len>") == "builtin"


def check_pinned_arms_equal_the_figures() -> None:
    sys.path.insert(0, run.SRC)
    from repro.experiments.scenario_registry import figure_specs

    figures = figure_specs()
    for figure, pinned in workloads.FIGURE_OF.items():
        today = [(spec.scenario, spec.params) for spec in figures[figure]]
        assert pinned == today, (
            f"{figure}: the pinned arm list and figure_specs() differ; "
            f"decide which one is right")
        assert all(spec.seed == 1 for spec in figures[figure])
    for workload in workloads.WORKLOADS.values():
        labels = [label for label, _, _ in workloads.build_arms(workload)]
        assert len(set(labels)) == len(labels), f"{workload.name}: labels"
        for _, hi, lo in workload.orderings:
            assert hi in labels and lo in labels, (workload.name, hi, lo)


def check_benchmark_json_matches_run_py() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert declared["paths"] == ["perf"]
    assert ({w["name"]: w["why"] for w in declared["workloads"]}
            == {w.name: w.why for w in workloads.WORKLOADS.values()})
    assert ({m["name"]: (m["unit"], m["bound"])
             for m in declared["end_to_end"]} == run.END_TO_END)
    assert all(m["better"] == "lower" for m in declared["end_to_end"])
    assert ({m["name"]: m["unit"] for m in declared["per_layer"]}
            == run.per_layer_units())


def check_speed_normalisation_arithmetic() -> None:
    nominal = reference.NOMINAL_CHUNK_S
    sampler = reference.SpeedSampler()
    assert sampler.measure(1.0, 3.0) == (2.0, 2.0)   # never ran
    # Chunks at t=1 (machine at nominal speed) and t=2 (at half speed).
    sampler.chunks = [(1.0, 1.0 + nominal), (2.0, 2.0 + 2 * nominal)]
    own, at_nominal = sampler.measure(0.0, 3.0)
    assert abs(own - (3.0 - 3 * nominal)) < 1e-12, own
    expected = (1.0 * 1.0                            # before the first
                + (1.0 - nominal) * 0.75             # between: mean of 1, 0.5
                + (1.0 - 2 * nominal) * 0.5)         # after the last
    assert abs(at_nominal - expected) < 1e-12, (at_nominal, expected)
    own, at_nominal = sampler.measure(1.2, 1.7)
    assert abs(own - 0.5) < 1e-12 and abs(at_nominal - 0.375) < 1e-12


def check_every_workload_runs_short() -> None:
    for name in workloads.WORKLOADS:
        record = run.run_pass(name, 1, "--max-duration", "1.0")
        for arm in record["arms"]:
            assert "error" not in arm, f"{name}/{arm['label']}:\n" \
                                       f"{arm.get('error')}"
            assert workloads.arm_is_sane(arm["summary"]), (name, arm)
        if workloads.WORKLOADS[name].checked:
            assert record["check_dispatched"] > 0, name


def main() -> int:
    run.build()
    for check in (check_layer_map_covers_every_package,
                  check_pinned_arms_equal_the_figures,
                  check_benchmark_json_matches_run_py,
                  check_speed_normalisation_arithmetic,
                  check_every_workload_runs_short):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
