"""Compare two records written by ``run.py --out``: A is the parent, B the change.

    python3 perf/compare.py A.json B.json

One row per (end-to-end metric, workload) with both medians and
quartiles and a verdict:

``worse``       B's median is worse than A's by more than the metric's bound.
``unresolved``  not worse, but a side's inter-quartile spread is wider
                than the bound and the two sides' samples overlap, so
                "unchanged" cannot be claimed either.
``ok``          anything else.

Exits non-zero on any ``worse`` row or any rise in ``fail_share``.
Simulated counts (``sim.events``, ``check.summary_drift``) are printed
beside the timings; they compare exactly or not at all.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from run import END_TO_END

COUNTS = ("sim.events", "check.summary_drift")


def relative_spread(row: Dict[str, Any]) -> float:
    return (row["q3"] - row["q1"]) / row["median"]


def cell(row: Dict[str, Any]) -> str:
    return f"{row['median']:.4f} [{row['q1']:.4f}, {row['q3']:.4f}]"


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float) -> str:
    """All end-to-end metrics are lower-is-better."""
    if b["median"] > a["median"] * (1.0 + bound):
        return "worse"
    wide = max(relative_spread(a), relative_spread(b)) > bound
    overlap = (min(a["samples"]) <= max(b["samples"])
               and min(b["samples"]) <= max(a["samples"]))
    return "unresolved" if wide and overlap else "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Print the table; return the reasons to exit non-zero."""
    problems = []
    print(f"A: commit {a['commit']} seed {a['seed']}   "
          f"B: commit {b['commit']} seed {b['seed']}")
    print(f"{'workload':<18}{'metric':<21}{'A median [q1, q3]':<32}"
          f"{'B median [q1, q3]':<32}{'B/A':>6}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<18}only in A")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (_, bound) in END_TO_END.items():
            ra, rb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            result = verdict(ra, rb, bound)
            note = ""
            if result != "ok":
                note = (f"  (spread A {relative_spread(ra):.1%}, "
                        f"B {relative_spread(rb):.1%}, bound {bound:.0%})")
            if result == "worse":
                problems.append(f"{metric} on {name} is worse")
            print(f"{name:<18}{metric:<21}{cell(ra):<32}{cell(rb):<32}"
                  f"{rb['median'] / ra['median']:>6.3f}  {result}{note}")
        rose = wb["fail_share"] > wa["fail_share"]
        if rose:
            problems.append(f"fail_share on {name} rose")
        print(f"{name:<18}{'fail_share':<21}"
              f"{wa['failed']}/{wa['attempted']:<30}"
              f"{wb['failed']}/{wb['attempted']:<30}"
              f"{'':>6}  {'worse' if rose else 'ok'}")
        for count in COUNTS:
            ca, cb = wa["per_layer"].get(count), wb["per_layer"].get(count)
            print(f"{name:<18}{count:<21}{ca!s:<32}{cb!s:<32}"
                  f"{'':>6}  {'same' if ca == cb else 'differs'}")
    return problems


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    records = []
    for path in sys.argv[1:]:
        with open(path) as fh:
            records.append(json.load(fh))
    problems = compare(*records)
    for problem in problems:
        print(f"!! {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
