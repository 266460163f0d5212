"""The benchmark's workloads: pinned arm lists, summaries, sanity laws.

Every workload is a fixed list of ``(scenario, params)`` arms.  The
lists are *pinned here* and not read from ``figure_specs()``, so a
later PR that shrinks a figure cannot quietly shrink the benchmark;
``perf/selftest.py`` notices when the two drift apart.  Each arm is
written with the figure's own parameters; the workload's ``time_scale``
then shortens the simulated timeline of the heavy ones so that one pass
of any workload costs about 2.6-4.2 seconds at nominal machine speed
and a 12 s run holds three to five passes (see README.md for the
measured sizes).

This module imports nothing from ``repro`` at import time, so
``run.py`` can list workloads without paying for the simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Parameters that are simulated seconds; a time scale multiplies all
#: of them together so a shortened timeline keeps its shape.
TIME_PARAMS = ("duration", "load_start", "load_end")

Arm = Tuple[str, Dict[str, Any]]  # (scenario, params at figure size)


# ----------------------------------------------------------------------
# Pinned arms (figure-sized; equality with figure_specs() is self-tested)
# ----------------------------------------------------------------------
def _priority(name: str, threads: bool, dscp: bool, cpu: bool,
              cross: bool) -> Arm:
    return ("priority", {
        "arm": {"name": name, "thread_priorities": threads, "dscp": dscp,
                "cpu_load": cpu, "cross_traffic": cross},
        "duration": 30.0})


def _net(name: str, reservation: Optional[str], filtering: bool) -> Arm:
    return ("reservation_net", {
        "arm": {"name": name, "reservation": reservation,
                "filtering": filtering},
        "duration": 300.0, "load_start": 60.0, "load_end": 120.0})


def _cpu(name: str, load: bool, reserve: bool) -> Arm:
    return ("reservation_cpu", {
        "arm": {"name": name, "cpu_load": load, "reservation": reserve},
        "duration": 120.0})


def _route(name: str, dynamic: bool, resignal: bool) -> Arm:
    return ("route", {
        "arm": {"name": name, "dynamic": dynamic, "resignal": resignal},
        "routers": 56, "duration": 40.0})


def _capacity_arm(name: str, priorities: bool, admission: bool,
                  adaptation: bool) -> Dict[str, Any]:
    return {"name": name, "priorities": priorities, "admission": admission,
            "adaptation": adaptation}


def _scale_arm(name: str, admission: bool, adaptation: bool,
               overload: bool) -> Dict[str, Any]:
    return {"name": name, "admission": admission, "adaptation": adaptation,
            "overload": overload}


def _pubsub_arm(name: str, **flags: bool) -> Dict[str, Any]:
    arm = {"name": name, "reliable": False, "adaptive": False,
           "ownership": False, "faults": True, "durable": False,
           "filtered": False, "partition": False}
    arm.update(flags)
    return arm


TABLE1 = [
    _net("1-none", None, False),
    _net("2-partial", "partial", False),
    _net("3-full", "full", False),
    _net("4-none-filtering", None, True),
    _net("5-partial-filtering", "partial", True),
    _net("6-full-filtering", "full", True),
]

FIG4 = [_priority("fig4a-control-idle", False, False, False, False),
        _priority("fig4b-control-congested", False, False, False, True)]
FIG5 = [_priority("fig5a-threads-cpuload", True, False, True, False),
        _priority("fig5b-threads-cpuload-congested", True, False, True, True)]
FIG6 = [FIG5[1],
        _priority("fig6-threads-dscp-congested", True, True, True, True)]

TABLE2 = [_cpu("no-load", False, False), _cpu("load", True, False),
          _cpu("load+reserve", True, True)]

FIG11 = [_route("static", False, False),
         _route("static-resignal", False, True),
         _route("dynamic", True, False),
         _route("dynamic-resignal", True, True)]

CAPACITY_ARMS = [
    _capacity_arm("best-effort", False, False, False),
    _capacity_arm("priority", True, False, False),
    _capacity_arm("reserves", True, True, False),
    _capacity_arm("adaptive", True, True, True),
]
FIG9 = [("capacity", {"arm": arm, "streams": n, "duration": 12.0})
        for arm in CAPACITY_ARMS for n in (1, 2, 4, 8, 16, 32, 64)]

FIG10 = [("scale", {"arm": arm, "streams": n, "duration": 8.0,
                    "fluid": True})
         for arm in (_scale_arm("best-effort", False, False, False),
                     _scale_arm("reserves", True, False, False),
                     _scale_arm("adaptive", True, True, False),
                     _scale_arm("overload", True, False, True))
         for n in (100, 1000, 10000, 100000)]

FIG12 = [("pubsub", {"arm": arm, "subscribers": n, "duration": 8.0})
         for arm in (_pubsub_arm("best-effort"),
                     _pubsub_arm("reliable", reliable=True),
                     _pubsub_arm("adaptive", adaptive=True, faults=False),
                     _pubsub_arm("ownership", ownership=True),
                     _pubsub_arm("durable", reliable=True, faults=False,
                                 durable=True),
                     _pubsub_arm("filtered", reliable=True, faults=False,
                                 filtered=True),
                     _pubsub_arm("partition", ownership=True,
                                 partition=True))
         for n in (128, 1024, 2048)]

#: Which ``figure_specs()`` entries each pinned list must equal today.
FIGURE_OF = {
    "table1_network_reservation": TABLE1,
    "fig4_control_runs": FIG4,
    "fig5_thread_priority": FIG5,
    "fig6_combined_priority": FIG6,
    "table2_cpu_reservation": TABLE2,
    "fig9_capacity": FIG9,
    "fig10_scale": FIG10,
    "fig11_route": FIG11,
    "fig12_pubsub": FIG12,
}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload(NamedTuple):
    name: str
    why: str
    arms: List[Arm]
    #: scenario -> factor applied to every TIME_PARAMS entry.
    time_scale: Dict[str, float]
    #: Install ``default_suite()`` on every arm (traced + checked path).
    checked: bool
    #: ``(key, hi, lo)``: summary[hi][key] >= summary[lo][key] must hold.
    orderings: List[Tuple[str, str, str]]


def _distinct(arms: List[Arm]) -> List[Arm]:
    out: List[Arm] = []
    for arm in arms:
        if arm not in out:
            out.append(arm)
    return out


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        "net_reservation",
        "six table 1 RSVP arms: per-packet net + sim and nothing else; "
        "a link/qdisc/transport or dispatch-loop change must move it",
        TABLE1, {"reservation_net": 0.2}, False,
        [("delivered_under_load", "3-full", "1-none"),
         ("delivered_under_load", "6-full-filtering", "4-none-filtering")]),
    Workload(
        "fluid_scale",
        "sixteen fig 10 arms, 10^2..10^5 fluid streams: the only workload "
        "that bypasses the packet path and the only memory-heavy one",
        FIG10, {"scale": 0.5}, False,
        [("protected_fps", "reserves/10000", "best-effort/10000"),
         ("protected_fps", "reserves/100000", "best-effort/100000")]),
    Workload(
        "capacity_farm",
        "28 fig 9 arms (4 mechanisms x N=1..64): most mixed layer profile "
        "and many short arms, so per-arm build cost shows here",
        FIG9, {"capacity": 0.5}, False,
        [("protected_fps", "reserves/64", "best-effort/64"),
         ("protected_fps", "adaptive/64", "best-effort/64")]),
    Workload(
        "endsystem_qos",
        "five fig 4/5/6 priority arms + three table 2 CPU-reserve arms: "
        "the only workload where orb and RT-CORBA priority mapping run",
        _distinct(FIG4 + FIG5 + FIG6) + TABLE2,
        {"priority": 0.5, "reservation_cpu": 0.5}, False,
        [("latency_s", "fig4b-control-congested",
          "fig6-threads-dscp-congested"),
         ("latency_s", "load", "load+reserve")]),
    Workload(
        "route_wan",
        "four fig 11 arms on a 56-router Waxman graph with a backbone "
        "cut: routing (LSA flood + SPF) runs here and nowhere else",
        FIG11, {}, False,
        [("delivered_after_cut", "dynamic-resignal", "static")]),
    Workload(
        "pubsub_fanout",
        "21 fig 12 arms (7 QoS arms x 128/1024/2048 subscribers): pubsub "
        "runs here and nowhere else, riding on net + fluid",
        FIG12, {}, False,
        [("delivered_fraction", "reliable/2048", "best-effort/2048")]),
    Workload(
        "capacity_checked",
        "fig 9 arms at N=8,16 with default_suite() installed: same sim/net "
        "code with tracer + checkers attached; shows any tax on that path",
        [arm for arm in FIG9 if arm[1]["streams"] in (8, 16)],
        {"capacity": 0.25}, True,
        [("protected_fps", "reserves/16", "best-effort/16")]),
]}


def scaled(params: Dict[str, Any], factor: float) -> Dict[str, Any]:
    """``params`` with every simulated-time entry multiplied by ``factor``."""
    out = dict(params)
    for key in TIME_PARAMS:
        if key in out:
            out[key] = out[key] * factor
    return out


def arm_label(params: Dict[str, Any]) -> str:
    """``name`` or ``name/N`` — unique within every workload."""
    size = params.get("streams", params.get("subscribers"))
    name = params["arm"]["name"]
    return name if size is None else f"{name}/{size}"


def build_arms(workload: Workload, max_duration: Optional[float] = None
               ) -> List[Tuple[str, str, Dict[str, Any]]]:
    """``(label, scenario, params)`` per arm at benchmark size.

    ``max_duration`` (simulated seconds) shortens every arm further;
    the self-test uses it to touch each scenario in well under a second.
    """
    out = []
    for scenario, params in workload.arms:
        factor = workload.time_scale.get(scenario, 1.0)
        if max_duration is not None:
            factor = min(factor, max_duration / params["duration"])
        out.append((arm_label(params), scenario, scaled(params, factor)))
    return out


# ----------------------------------------------------------------------
# Plain-number summaries (what expected.json pins, what the laws read)
# ----------------------------------------------------------------------
def _sum_net(p) -> Dict[str, Any]:
    lo, hi = p.load_start, p.load_end
    return {
        "sent": p.sender_delivery.sent_count(),
        "delivered": p.sender_delivery.received_count(),
        "latency_s": p.receiver_delivery.latency.stats().mean,
        "delivered_under_load": p.delivered_fraction_under_load(),
        "sent_under_load": p.sender_delivery.sent_count(lo, hi),
    }


def _sum_priority(p) -> Dict[str, Any]:
    return {
        "sent": sum(p.frames_sent.values()),
        "delivered": sum(rec.count for rec in p.latency.values()),
        "latency_s": p.stats("sender1").mean,
        "latency2_s": p.stats("sender2").mean,
    }


def _sum_cpu(p) -> Dict[str, Any]:
    stats = p.algorithm_stats
    return {
        "sent": p.images_processed,
        "delivered": min(s.count for s in stats.values()),
        "latency_s": sum(s.mean for s in stats.values()),
    }


def _sum_route(p) -> Dict[str, Any]:
    return {
        "sent": p.sender_delivery.sent_count(),
        "delivered": p.sender_delivery.received_count(),
        "latency_s": p.sender_delivery.latency.stats().mean,
        "delivered_after_cut": p.delivered_in(p.fail_at, p.duration),
        "spf_runs": p.spf_runs,
        "lsas_flooded": p.lsas_flooded,
        "unroutable_drops": p.unroutable_drops,
    }


def _sum_rows(rows, sent_field: str = "sent") -> Dict[str, Any]:
    delivered = sum(r.delivered for r in rows)
    return {
        "sent": sum(getattr(r, sent_field) for r in rows),
        "delivered": delivered,
        "latency_s": (sum(r.mean_latency * r.delivered for r in rows)
                      / delivered if delivered else 0.0),
    }


def _sum_capacity(p) -> Dict[str, Any]:
    out = _sum_rows(p.rows)
    out["admitted"] = p.admitted_count
    out["protected_fps"] = (p.min_fps(True) if p.admitted_count
                            else p.mean_fps())
    return out


def _sum_scale(p) -> Dict[str, Any]:
    out = _sum_rows(p.measured_rows)
    protected = p.admitted_stats or p.best_effort_stats
    out["admitted"] = p.admitted_count
    out["protected_fps"] = protected.mean_fps
    out["loss_rate"] = protected.loss_rate
    out["fluid_epochs"] = p.fluid_epochs
    return out


def _sum_pubsub(p) -> Dict[str, Any]:
    out = _sum_rows(p.reader_rows, "sent_to")
    out["delivered_fraction"] = p.delivery_fraction
    out["duplicates"] = sum(r.duplicates for r in p.reader_rows)
    out["deadline_misses"] = p.total_deadline_misses
    return out


_SUMMARIZERS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "reservation_net": _sum_net,
    "priority": _sum_priority,
    "reservation_cpu": _sum_cpu,
    "route": _sum_route,
    "capacity": _sum_capacity,
    "scale": _sum_scale,
    "pubsub": _sum_pubsub,
}


def summarize(scenario: str, payload: Any, events: int) -> Dict[str, Any]:
    """One arm's plain-number summary; ``dropped`` is sent - delivered."""
    out = _SUMMARIZERS[scenario](payload)
    out["dropped"] = out["sent"] - out["delivered"]
    out["events"] = events
    return out


def arm_is_sane(summary: Dict[str, Any]) -> bool:
    """The laws every arm obeys whatever its mechanism."""
    return summary["events"] > 0 and 0 <= summary["delivered"] <= summary["sent"]


def broken_orderings(workload: Workload,
                     summaries: Dict[str, Dict[str, Any]]) -> List[str]:
    """Mechanism orderings that do not hold, as readable strings.

    An ordering whose arms did not both produce a summary (one raised)
    is reported too: the law could not be shown.
    """
    out = []
    for key, hi, lo in workload.orderings:
        a, b = summaries.get(hi), summaries.get(lo)
        if a is None or b is None or not a[key] >= b[key]:
            out.append(f"{key}: {hi} >= {lo}")
    return out
