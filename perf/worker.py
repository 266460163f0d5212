"""One cold pass of one workload; ``run.py`` starts a fresh interpreter
per pass and reads the JSON object this prints as its last line.

Cold and serial by construction: the arms run one after another in
this process through ``ExperimentRunner(jobs=1, cache=False)``, so no
result can come from ``.repro-cache`` and nothing runs beside it.

Times are reported twice: ``*_raw_s`` is this process's own host
seconds, ``*_s`` the same span at nominal machine speed (reference.py).
A profiled pass is not sampled and reports raw seconds only.
"""

from __future__ import annotations

import sys
import time

import reference

# Sampling starts before anything else is imported, so that set-up
# (imports, scenario registration, spec building) is covered too.
CLOCK_OFFSET = time.perf_counter() - time.time()
SAMPLER = reference.SpeedSampler()
if "--profile" not in sys.argv:
    SAMPLER.start()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before the parent spawned us")
    parser.add_argument("--profile", action="store_true",
                        help="run the arms under cProfile")
    parser.add_argument("--profile-out",
                        help="also dump the raw profile here (pstats format)")
    parser.add_argument("--no-checks", action="store_true",
                        help="run a checked workload's arms without checks")
    parser.add_argument("--max-duration", type=float,
                        help="cap every arm's simulated seconds (self-test)")
    args = parser.parse_args()

    from repro.check import default_suite
    from repro.experiments.runner import (ExperimentRunner, RunSpec,
                                          registered_scenarios)
    from repro.sim.eventq import scheduler_from_env

    registered_scenarios()
    workload = workloads.WORKLOADS[args.workload]
    checked = workload.checked and not args.no_checks
    suites = []
    specs = []
    for label, scenario, params in workloads.build_arms(
            workload, args.max_duration):
        if checked:
            suites.append(default_suite())
            params["checks"] = suites[-1]
        specs.append((label, RunSpec(scenario, params, seed=args.seed)))
    runner = ExperimentRunner(jobs=1, cache=False)
    if runner.jobs != 1 or runner.cache_enabled:
        SAMPLER.stop()
        print("refusing to run: the runner is not serial and cold",
              file=sys.stderr)
        return 2
    profile = cProfile.Profile() if args.profile else None
    outcomes = []
    #: perf_counter at process spawn, then at the end of set-up and of
    #: every arm; consecutive marks bound the spans that are reported.
    marks = [args.spawned_at + CLOCK_OFFSET, time.perf_counter()]
    if profile:
        profile.enable()
    for _, spec in specs:
        try:
            outcomes.append(runner.run_one(spec))
        except Exception:  # an arm that raises is a failed arm; keep going
            outcomes.append(traceback.format_exc(limit=8))
        marks.append(time.perf_counter())
    if profile:
        profile.disable()
    SAMPLER.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_raw_s, setup_s = SAMPLER.measure(marks[0], marks[1])
    wall_raw_s, wall_s = SAMPLER.measure(marks[1], marks[-1])

    arms = []
    for (label, spec), outcome, begin, end in zip(specs, outcomes, marks[1:],
                                                  marks[2:]):
        if isinstance(outcome, str):
            arms.append({"label": label, "error": outcome})
            continue
        arms.append({
            "label": label,
            "wall_s": SAMPLER.measure(begin, end)[1],
            "summary": workloads.summarize(spec.scenario, outcome.payload,
                                           outcome.events),
        })
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "scheduler": scheduler_from_env(),
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "speed_samples": len(SAMPLER.chunks),
        "peak_rss_mb": peak_rss_mb,
        "check_dispatched": sum(s.events_dispatched for s in suites),
        "arms": arms,
    }
    if profile:
        stats = profile.getstats()
        record["layers"] = layers.attribute(stats)
        record["calls_total"] = sum(entry.callcount for entry in stats)
        if args.profile_out:
            profile.dump_stats(args.profile_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
