"""The repo's benchmark: cold, serial, per-layer.  See perf/README.md.

    python3 perf/run.py [--workload NAME] [--seed 1]
                        [--rounds 5 | --seconds S] [--trace 0|1]
                        [--out FILE] [--pin]

With ``--trace 0`` (default) every selected workload is run repeatedly,
one fresh interpreter per pass, rounds interleaved across workloads so
machine drift lands on all of them alike, and each end-to-end metric is
reported as median, quartiles and sample count; times are seconds at
nominal machine speed (reference.py).  With ``--trace 1``
each workload instead gets one plain pass, one pass under cProfile
(per-layer self time, by source path) and the micro-benchmarks.  When
exactly one workload is selected the last line of stdout is the JSON
object BENCHMARK.json's driver reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")
PASS_TIMEOUT_S = 170

#: name -> (unit, bound as a share of the parent's median).  Times are
#: seconds at nominal machine speed (reference.py), which takes out most
#: of this shared box's wandering but not all of it (README.md, "Noise"),
#: so the time bounds stay as wide as the driver allows; gains are shown
#: by alternating pairs, not by the bound.
#: fail_share is carried by the driver line's ``attempted``/``failed``
#: counts: a metric that is 0 when healthy has no relative bound.
END_TO_END = {
    "wall_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.10),
    "setup_s": ("s", 0.25),
}

UNTRACED_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.us_per_event": "us",
    "experiments.arms": "count",
    "experiments.slowest_arm_s": "s",
    "check.dispatched": "count",
    "check.summary_drift": "count",
    # What reference.py took out: the host seconds as they were, and the
    # machine's speed while they passed as a share of nominal.
    "host.wall_raw_s": "s",
    "host.speed_share": "share",
}
TRACED_LAYER_UNITS = {
    "trace.calls_total": "count",
    "trace.overhead_x": "x",
    "check.overhead_x": "x",
}
MICRO_UNITS = {
    "sim.raw_events_per_s": "1/s",
    "net.qdisc_ops_per_s": "1/s",
    "net.link_pkts_per_s": "1/s",
    "oskernel.submits_per_s": "1/s",
    "orb.cdr_mb_per_s": "MB/s",
    "orb.invocations_per_s": "1/s",
    "fluid.rate_changes_per_s": "1/s",
    "routing.spf_runs_per_s": "1/s",
    "pubsub.rxo_checks_per_s": "1/s",
    "pubsub.filter_evals_per_s": "1/s",
    "pubsub.dedup_ops_per_s": "1/s",
    "check.records_per_s": "1/s",
    "obs.emits_per_s": "1/s",
    "experiments.cache_hit_ms": "ms",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a ``--trace 1`` run reports, with its unit."""
    units = {}
    for layer in layers.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_share"] = "share"
        units[f"{layer}.calls"] = "count"
    units.update(TRACED_LAYER_UNITS)
    units.update(UNTRACED_LAYER_UNITS)
    units.update(MICRO_UNITS)
    return units


# ----------------------------------------------------------------------
# Honest-by-construction guards and the child environment
# ----------------------------------------------------------------------
def refuse_unless_cold_and_serial() -> None:
    """Stop when the caller's environment asks for cache or parallelism.

    The children are forced cold and serial regardless; an environment
    that says otherwise means the caller expects a different
    measurement than the one this would silently produce.
    """
    env = os.environ
    if env.get("REPRO_CACHE", "0") not in ("0", "false", "no"):
        sys.exit("perf/run.py: REPRO_CACHE asks for the result cache; the "
                 "benchmark is cold by construction. Unset it.")
    try:
        jobs = int(env.get("REPRO_JOBS") or 1)
    except ValueError:
        jobs = 0
    if jobs != 1:
        sys.exit("perf/run.py: REPRO_JOBS is set to something other than 1; "
                 "the benchmark is serial by construction. Unset it.")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # One thread means one: numpy's BLAS would otherwise start a pool
    # that spins beside the imports on a two-core box.
    env.update(PYTHONHASHSEED="0", REPRO_CACHE="0", REPRO_JOBS="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=SRC + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else ""))
    return env


def build() -> None:
    """Byte-compile the sources so no pass pays for it inside setup_s."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit("perf/run.py: src/repro is not here; nothing to measure.")
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   check=True, stdout=subprocess.DEVNULL)


def run_child(script: str, *args: str) -> Dict[str, Any]:
    """Run a perf/ script in a fresh interpreter; its last line as JSON."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args], env=child_env(),
        cwd=ROOT, text=True, capture_output=True, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        sys.exit(f"perf/run.py: {script} {' '.join(args)} exited "
                 f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_pass(workload: str, seed: int, *extra: str) -> Dict[str, Any]:
    """One cold pass of ``workload``; the worker's record."""
    return run_child("worker.py", "--workload", workload, "--seed", str(seed),
                     "--spawned-at", repr(time.time()), *extra)


# ----------------------------------------------------------------------
# Judging passes
# ----------------------------------------------------------------------
def summaries_of(record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {arm["label"]: arm["summary"] for arm in record["arms"]
            if "summary" in arm}


def failed_arms(record: Dict[str, Any]) -> List[str]:
    """Arms that raised, broke a per-arm law, or broke a mechanism law."""
    workload = workloads.WORKLOADS[record["workload"]]
    failed = []
    for arm in record["arms"]:
        if "error" in arm:
            failed.append(f"{arm['label']}: raised\n{arm['error']}")
        elif not workloads.arm_is_sane(arm["summary"]):
            failed.append(f"{arm['label']}: events > 0 and "
                          f"0 <= delivered <= sent does not hold")
    failed.extend(workloads.broken_orderings(workload, summaries_of(record)))
    return failed


def load_expected() -> Dict[str, Dict[str, Dict[str, Any]]]:
    try:
        with open(EXPECTED) as fh:
            return json.load(fh)
    except FileNotFoundError:
        sys.exit("perf/run.py: perf/expected.json is missing. It pins the "
                 "seed-1 summaries; regenerate it with --pin at a commit "
                 "whose results you trust.")


def summary_drift(record: Dict[str, Any],
                  expected: Dict[str, Dict[str, Dict[str, Any]]]
                  ) -> List[str]:
    """Labels of seed-1 arms whose summary differs from expected.json."""
    assert record["seed"] == 1
    pinned = expected.get(record["workload"], {})
    got = summaries_of(record)
    return sorted(label for label in set(pinned) | set(got)
                  if pinned.get(label) != got.get(label))


def spread(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and count, as the driver computes them."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def untraced_layer_metrics(passes: List[Dict[str, Any]],
                           drift: Optional[List[str]]) -> Dict[str, Any]:
    first = passes[0]
    events = sum(s["events"] for s in summaries_of(first).values())
    wall = statistics.median(p["wall_s"] for p in passes)
    return {
        "sim.events": events,
        "sim.events_per_s": events / wall,
        "sim.us_per_event": 1e6 * wall / events if events else 0.0,
        "experiments.arms": len(first["arms"]),
        "experiments.slowest_arm_s": statistics.median(
            max(arm.get("wall_s", 0.0) for arm in p["arms"])
            for p in passes),
        "check.dispatched": first["check_dispatched"],
        "check.summary_drift": None if drift is None else len(drift),
        "host.wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
        "host.speed_share": statistics.median(
            p["wall_s"] / p["wall_raw_s"] for p in passes),
    }


class Result:
    """What one workload produced in this invocation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.passes: List[Dict[str, Any]] = []   # plain passes at --seed
        self.end_to_end: Dict[str, Dict[str, Any]] = {}
        self.per_layer: Dict[str, Any] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.drift: Optional[List[str]] = None
        self.deterministic = True

    def judge(self, record: Dict[str, Any]) -> None:
        self.attempted += len(record["arms"])
        self.failures.extend(failed_arms(record))

    def require_same_outputs(self, a: Dict[str, Any], b: Dict[str, Any],
                             what: str) -> None:
        if summaries_of(a) != summaries_of(b):
            self.deterministic = False
            print(f"!! {self.name}: {what} changed the simulated outputs")

    @property
    def correct(self) -> bool:
        return self.deterministic and not self.failures

    def as_json(self) -> Dict[str, Any]:
        return {"end_to_end": self.end_to_end, "per_layer": self.per_layer,
                "attempted": self.attempted, "failed": len(self.failures),
                "fail_share": len(self.failures) / max(1, self.attempted),
                "failures": self.failures, "drift": self.drift,
                "correct": self.correct}


def measure_untraced(results: Dict[str, Result], seed: int,
                     rounds: Optional[int], seconds: Optional[float],
                     expected: Dict[str, Any]) -> None:
    started = time.perf_counter()
    done = 0
    while (done < rounds if rounds is not None
           else time.perf_counter() - started < seconds):
        for result in results.values():
            record = run_pass(result.name, seed)
            result.judge(record)
            if result.passes:
                result.require_same_outputs(result.passes[0], record,
                                            "repeating the pass")
            result.passes.append(record)
        done += 1
    for result in results.values():
        for metric in END_TO_END:
            result.end_to_end[metric] = spread(
                [p[metric] for p in result.passes])
        if seed == 1:
            result.drift = summary_drift(result.passes[0], expected)
        result.per_layer = untraced_layer_metrics(result.passes, result.drift)


def measure_traced(results: Dict[str, Result], seed: int,
                   expected: Dict[str, Any], profile_prefix: Optional[str]
                   ) -> None:
    for result in results.values():
        name = result.name
        plain = run_pass(name, seed)
        extra = (["--profile-out", f"{profile_prefix}.{name}.prof"]
                 if profile_prefix else [])
        traced = run_pass(name, seed, "--profile", *extra)
        for record in (plain, traced):
            result.judge(record)
        result.require_same_outputs(plain, traced, "profiling")
        result.passes.append(plain)
        pinned = plain if seed == 1 else run_pass(name, 1)
        result.drift = summary_drift(pinned, expected)
        metrics = untraced_layer_metrics([plain], result.drift)
        for layer, row in traced["layers"].items():
            for key, value in row.items():
                metrics[f"{layer}.{key}"] = value
        metrics["trace.calls_total"] = traced["calls_total"]
        # The profiled pass is not speed-sampled: raw against raw.
        metrics["trace.overhead_x"] = (traced["wall_raw_s"]
                                       / plain["wall_raw_s"])
        # Workloads without checks installed have nothing to remove.
        metrics["check.overhead_x"] = 1.0
        if workloads.WORKLOADS[name].checked:
            bare = run_pass(name, seed, "--no-checks")
            metrics["check.overhead_x"] = plain["wall_s"] / bare["wall_s"]
        result.per_layer = metrics
    micro = run_child("micro.py", "--json", "--min-seconds", "0.1",
                      "--repeats", "3")
    for result in results.values():
        result.per_layer.update(micro)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def stamp() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def print_report(results: Dict[str, Result], traced: bool) -> None:
    units = per_layer_units()
    for result in results.values():
        print(f"\n== {result.name}")
        for metric, row in result.end_to_end.items():
            unit, bound = END_TO_END[metric]
            print(f"{metric:<28} median {row['median']:.4f} {unit}  "
                  f"q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n {row['n']}  "
                  f"(bound {bound:.0%})")
        for metric, value in result.per_layer.items():
            if value is None:
                shown = "n/a (seed != 1)"
            elif isinstance(value, float):
                shown = f"{value:.6g}"
            else:
                shown = str(value)
            print(f"{metric:<28} {shown} {units[metric]}")
        print(f"{'fail_share':<28} {len(result.failures)}/{result.attempted}"
              f" arms")
        for failure in result.failures:
            print(f"!! failed: {failure}")
        for label in result.drift or ():
            print(f"!! drift from perf/expected.json: {label}")
    print("\nwall_s, setup_s and the per-arm times are seconds at nominal "
          "machine speed (reference.py);\nhost.wall_raw_s is what the clock "
          "read, host.speed_share how fast the machine was meanwhile")
    if traced:
        print("traced seconds are not real seconds: divide by "
              "trace.overhead_x, or read self_share")


def driver_line(result: Result, traced: bool) -> str:
    if traced:
        units = per_layer_units()
        metrics = {name: {"value": result.per_layer[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": result.end_to_end[name]["median"],
                          "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    return json.dumps({"correct": result.correct,
                       "attempted": result.attempted,
                       "failed": len(result.failures), "metrics": metrics})


def pin(seed: int) -> None:
    if seed != 1:
        sys.exit("perf/run.py: --pin pins seed 1")
    pinned = {}
    for name in workloads.WORKLOADS:
        record = run_pass(name, 1)
        failures = failed_arms(record)
        if failures:
            sys.exit(f"perf/run.py: not pinning, {name} fails: {failures}")
        pinned[name] = summaries_of(record)
    with open(EXPECTED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {sum(map(len, pinned.values()))} arm summaries "
          f"in {EXPECTED}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=1,
                        help="passed as every arm's seed= (default 1)")
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--rounds", type=int,
                        help="passes per workload (default 5)")
    length.add_argument("--seconds", type=float,
                        help="keep starting rounds until this much time "
                             "has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer run (cProfile + micro) instead")
    parser.add_argument("--out", help="write the full JSON record here")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite perf/expected.json from seed 1")
    args = parser.parse_args()

    refuse_unless_cold_and_serial()
    began = time.perf_counter()
    build()
    if args.pin:
        pin(args.seed)
        return 0
    expected = load_expected()
    record = stamp()
    if record["loadavg"][0] > 0.5:
        print(f"!! warning: 1-minute load average is "
              f"{record['loadavg'][0]:.2f} (> 0.5); timings will be noisy")

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {name: Result(name) for name in names}
    if args.trace:
        measure_traced(results, args.seed, expected, args.out)
    else:
        rounds = None if args.seconds is not None else args.rounds or 5
        measure_untraced(results, args.seed, rounds, args.seconds, expected)

    record["REPRO_SCHEDULER"] = next(iter(results.values())
                                     ).passes[0]["scheduler"]
    record["seed"] = args.seed
    record["trace"] = args.trace
    record["total_s"] = time.perf_counter() - began
    record["workloads"] = {name: result.as_json()
                           for name, result in results.items()}
    print_report(results, bool(args.trace))
    print(f"\ncommit {record['commit']}  python {record['python']}  "
          f"scheduler {record['REPRO_SCHEDULER']}  nproc {record['nproc']}  "
          f"load {record['loadavg'][0]:.2f}  total {record['total_s']:.1f} s")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    if len(results) == 1:
        print(driver_line(results[names[0]], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
