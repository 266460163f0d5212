"""Paper-style text rendering of experiment results.

Each function returns a string shaped like the corresponding table or
figure caption in the paper, so benchmark output can be eyeballed
against the original side by side.

The ``*_text`` functions at the bottom are the figure renderers the
table in :mod:`repro.experiments.scenario_registry` refers to: each
takes ``runs``, a figure's ``{arm label: payload}`` in table order, and
returns the text of ``results/<figure>.txt``.  They read everything
from ``runs``, so they work on any subset of a figure's arms.  Beside
each renderer sit its figure's claims (``*_CLAIMS``): the paper's
findings as predicates over the same ``runs`` of the whole figure,
which ``repro verify`` evaluates.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.obs.breakdown import SeriesStats
from repro.experiments.ablations import (
    PRIORITY_DRIVEN_TASKS,
    RESERVE_POLICY_CPU,
    RESERVE_POLICY_DURATION,
    deadline_misses,
)
from repro.experiments.arm import Claim
from repro.experiments.priority_exp import PropagationHop
from repro.net.diffserv import Dscp


def _rule(widths: Sequence[int]) -> str:
    return "+".join("-" * (w + 2) for w in widths)


def render_table(
    headers: Sequence[str], rows: Iterable[Sequence[str]]
) -> str:
    """Plain-text table with padded columns."""
    materialized: List[List[str]] = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        _rule(widths).replace("+", "-+-")[: sum(widths) + 3 * len(widths) - 3],
    ]
    for row in materialized:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_figure2(hops: Sequence[PropagationHop]) -> str:
    """The Fig 2 priority-propagation chain."""
    rows = []
    for hop in hops:
        rows.append((
            hop.role,
            hop.host,
            hop.os_type.value,
            hop.corba_priority,
            hop.native_priority,
            hop.dscp.name if hop.dscp else "-",
        ))
    return render_table(
        ("role", "host", "os", "corba prio", "native prio", "dscp"), rows
    )


def render_latency_table(
    arm_stats: Dict[str, Dict[str, SeriesStats]]
) -> str:
    """Figs 4-6 summary: per-arm, per-sender latency statistics."""
    rows = []
    for arm_name, senders in arm_stats.items():
        for sender_name, stats in senders.items():
            rows.append((
                arm_name,
                sender_name,
                stats.count,
                f"{stats.mean * 1e3:.2f}",
                f"{stats.std * 1e3:.2f}",
                f"{stats.maximum * 1e3:.1f}",
            ))
    return render_table(
        ("arm", "sender", "frames", "mean ms", "std ms", "max ms"), rows
    )


def render_table1(
    rows: Sequence[Tuple[str, float, SeriesStats]],
    jitter: Optional[Sequence[SeriesStats]] = None,
) -> str:
    """Table 1: (arm name, delivered fraction, latency stats) rows,
    optionally extended with an inter-arrival jitter column (the
    paper's 'minimal jitter' QoS dimension)."""
    headers = ["configuration", "% frames delivered (under load)",
               "average latency", "std dev (ms)"]
    if jitter is not None:
        headers.append("interarrival jitter (ms)")
    formatted = []
    for index, (name, fraction, stats) in enumerate(rows):
        row = [
            name,
            f"{fraction * 100:.2f}%",
            f"{stats.mean * 1e3:.1f} ms",
            f"{stats.std * 1e3:.1f}",
        ]
        if jitter is not None:
            row.append(f"{jitter[index].std * 1e3:.1f}")
        formatted.append(row)
    return render_table(headers, formatted)


def render_table2(
    arm_stats: Dict[str, Dict[str, SeriesStats]],
    algorithms: Sequence[str] = ("Kirsch", "Prewitt", "Sobel"),
) -> str:
    """Table 2: per-algorithm rows, per-condition columns."""
    headers = ["algorithm"]
    for arm_name in arm_stats:
        headers.extend([f"{arm_name} avg ms", f"{arm_name} std"])
    rows = []
    for algorithm in algorithms:
        row: List[str] = [algorithm]
        for stats_by_algorithm in arm_stats.values():
            stats = stats_by_algorithm[algorithm]
            row.append(f"{stats.mean * 1e3:.1f}")
            row.append(f"{stats.std * 1e3:.1f}")
        rows.append(row)
    return render_table(headers, rows)


def render_series(
    title: str, series: Sequence[Tuple[float, float]], unit: str = "ms",
    scale: float = 1e3,
) -> str:
    """A (time, value) series as text — the 'figure' data."""
    lines = [title]
    for time, value in series:
        lines.append(f"  t={time:8.2f}s  {value * scale:10.3f} {unit}")
    return "\n".join(lines)


def render_cumulative_delivery(
    title: str, rows: Sequence[Tuple[float, int, int]]
) -> str:
    """Fig 7: cumulative frames sent vs received over time."""
    lines = [title, "  time      sent  received"]
    for time, sent, received in rows:
        lines.append(f"  t={time:7.1f}s {sent:6d} {received:9d}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figure renderers: {arm label: payload} -> results/<figure>.txt
# ----------------------------------------------------------------------
def _on_arms(test: Callable[..., bool]) -> Callable[[Dict[str, Any]], bool]:
    """A claim's ``holds`` that calls ``test`` with the payloads in table
    order, so its parameters name the arms (``lambda idle, congested:``)."""
    return lambda runs: test(*runs.values())


def fig2_text(runs: Dict[str, Dict[str, Any]]) -> str:
    return "\n\n".join(render_figure2(run["hops"]) for run in runs.values())


FIG2_CLAIMS = (
    Claim("RT-CORBA priority 100 lands as QNX 16, LynxOS 128 and "
          "Solaris 136",
          _on_arms(lambda run: [h.native_priority for h in run["hops"]]
                   == [16, 128, 136]
                   and all(h.corba_priority == 100 for h in run["hops"]))),
    Claim("DSCP EF on every network segment",
          _on_arms(lambda run: all(h.dscp == Dscp.EF
                                   for h in run["hops"]))),
)

_SENDERS = ("sender1", "sender2")


def latency_text(runs: Dict[str, Any]) -> str:
    """Figs 5 and 6: the per-arm, per-sender latency table."""
    return render_latency_table({
        label: {name: result.stats(name) for name in ("sender1", "sender2")}
        for label, result in runs.items()
    })


def fig4_text(runs: Dict[str, Any]) -> str:
    """The latency table plus sender 1's binned series per arm."""
    sections = [latency_text(runs)]
    for label, result in runs.items():
        # "fig4a (idle)" -> "fig4a": the series is titled by the panel.
        sections.append(render_series(
            f"{label.split()[0]} sender1 latency (binned mean)",
            result.series("sender1", 1.0)))
    return "\n\n".join(sections)


FIG4_CLAIMS = (
    Claim("(a) idle network: latency low and flat for both senders",
          _on_arms(lambda idle, congested: all(
              idle.stats(name).mean < 0.02 and idle.stats(name).std < 0.01
              for name in _SENDERS))),
    Claim("(b) with 16 Mbps cross traffic, latency fluctuates widely "
          "between a few milliseconds to over a second for both streams",
          _on_arms(lambda idle, congested: all(
              congested.stats(name).minimum < 0.05
              and congested.stats(name).maximum > 1.0
              and congested.stats(name).std > 0.1 for name in _SENDERS))),
)

FIG5_CLAIMS = (
    Claim("(a) the higher priority task (Sender 1) exhibits significantly "
          "lower latency than the lower priority task",
          _on_arms(lambda quiet, congested: quiet.stats("sender1").mean * 3
                   < quiet.stats("sender2").mean)),
    Claim("(b) thread priorities are not sufficient to maintain QoS: both "
          "senders spike under congestion",
          _on_arms(lambda quiet, congested: all(
              congested.stats(name).maximum > 0.3
              and congested.stats(name).std > 0.05 for name in _SENDERS))),
    Claim("the high-priority sender no longer reliably wins across the "
          "network bottleneck",
          _on_arms(lambda quiet, congested: congested.stats("sender1").maximum
                   > 10 * quiet.stats("sender1").maximum)),
)

FIG6_CLAIMS = (
    Claim("both senders become much more predictable under CPU load + "
          "16 Mbps congestion",
          _on_arms(lambda fig5b, fig6: fig6.stats("sender1").mean < 0.02
                   and fig6.stats("sender1").std < 0.01
                   and fig6.stats("sender2").count > 200)),
    Claim("Sender 1's stream exhibits lower latency than Sender 2",
          _on_arms(lambda fig5b, fig6: fig6.stats("sender1").mean
                   < fig6.stats("sender2").mean)),
    Claim("...and than it did with thread priority alone",
          _on_arms(lambda fig5b, fig6: fig6.stats("sender1").mean
                   < fig5b.stats("sender1").mean / 5)),
)


def fig7_text(runs: Dict[str, Any]) -> str:
    return "\n\n".join(
        render_cumulative_delivery(
            f"Fig 7 — {label}",
            result.cumulative_counts(bin_width=result.duration / 15))
        for label, result in runs.items())


def _final_gap(result: Any) -> int:
    """Frames sent but not received by the end of the run."""
    _, sent, received = result.cumulative_counts(bin_width=20.0)[-1]
    return sent - received


FIG7_CLAIMS = (
    Claim("with no adaptation, almost all of the frames sent while the "
          "system was under load were lost",
          _on_arms(lambda none, partial, full:
                   none.delivered_fraction_under_load() < 0.05)),
    Claim("with a partial reservation and frame filtering, the middleware "
          "dropped less important intermediate frames, but successfully "
          "delivered all full content frames",
          _on_arms(lambda none, partial, full:
                   partial.i_frames_delivered_under_load() > 0.75
                   and partial.delivered_fraction_under_load() > 0.80)),
    Claim("with a full reservation, all frames were successfully delivered",
          _on_arms(lambda none, partial, full:
                   full.delivered_fraction_under_load() > 0.995)),
    Claim("the cumulative sent/received gap opens only for the unmanaged arm",
          _on_arms(lambda none, partial, full: _final_gap(none) > 1000
                   and _final_gap(full) < 20)),
)


def fig8_text(runs: Dict[str, Any]) -> str:
    sections = []
    for name, result in runs.items():
        mode = "on" if result.arm.adaptive else "off"
        window_table = render_table(
            ("fault", "start", "end", "sent", "delivered"),
            [(label, f"{start:.1f}", f"{end:.1f}", sent, delivered)
             for label, start, end, sent, delivered
             in result.per_window_counts()])
        sections.append("\n".join([
            f"Fig 8 — {name} (adaptation {mode})",
            window_table,
            f"in fault windows: sent={result.sent_in_fault_windows()} "
            f"delivered={result.delivered_in_fault_windows()}",
            "post-fault recovery rate: "
            f"{result.recovery_rate_fps(10.0):.1f} fps",
            render_cumulative_delivery(
                "cumulative delivery",
                result.cumulative_counts(bin_width=result.duration / 12)),
        ]))
    return "\n\n".join(sections)


def _fault_window_loss(result: Any) -> float:
    return 1 - (result.delivered_in_fault_windows()
                / result.sent_in_fault_windows())


def _fits_the_collapse(result: Any) -> bool:
    """The first window is the bandwidth collapse, and nearly every
    frame sent in it arrived."""
    label, _, _, sent, delivered = result.per_window_counts()[0]
    return label.startswith("link_degrade") and delivered >= 0.95 * sent


FIG8_CLAIMS = (
    Claim("unmanaged, the stream keeps blasting 30 fps into the faults "
          "and almost every frame loses a fragment",
          _on_arms(lambda static, adaptive:
                   static.sent_in_fault_windows() > 2000
                   and _fault_window_loss(static) > 0.9)),
    Claim("the contract sheds load instead, and the overwhelming majority "
          "of what it sends arrives",
          _on_arms(lambda static, adaptive:
                   adaptive.delivered_in_fault_windows()
                   >= 0.8 * adaptive.sent_in_fault_windows())),
    Claim("adaptation delivers measurably more frames through the same "
          "faults than blind full-rate streaming",
          _on_arms(lambda static, adaptive:
                   adaptive.delivered_in_fault_windows()
                   > 1.3 * static.delivered_in_fault_windows())),
    Claim("during the long bandwidth collapse the shed stream fits the "
          "surviving capacity",
          _on_arms(lambda static, adaptive: _fits_the_collapse(adaptive))),
    Claim("only the adaptive arm wires a reporter, and it saw every "
          "windowed fault",
          _on_arms(lambda static, adaptive: adaptive.faults_reported == 4
                   and static.faults_reported == 0)),
    Claim("after the last fault clears, both arms are back at full rate",
          _on_arms(lambda static, adaptive:
                   static.recovery_rate_fps(10.0) > 27.0
                   and adaptive.recovery_rate_fps(10.0) > 27.0)),
)


def fig11_text(runs: Dict[str, Any]) -> str:
    first = next(iter(runs.values()))
    summary = render_table(
        ("arm", "pre-fail fps", "recovery fps", "spf runs", "lsas",
         "resignals", "unroutable"),
        [(name,
          f"{result.pre_fail_fps():.2f}",
          f"{result.recovery_rate_fps():.2f}",
          result.spf_runs, result.lsas_flooded,
          result.resignal_rounds, result.unroutable_drops)
         for name, result in runs.items()])
    sections = ["\n".join([
        f"Fig 11 — rerouting gauntlet ({first.router_count}-router "
        f"{first.topology}, {first.link_count} links)",
        f"primary path: {' -> '.join(first.primary_path)}",
        f"backbone cut at t={first.fail_at:g}s: "
        f"{first.backbone[0]}-{first.backbone[1]}; cross traffic on "
        f"{first.detour_edge[0]}-{first.detour_edge[1]}",
        summary,
    ])]
    for name, result in runs.items():
        sections.append(render_cumulative_delivery(
            f"cumulative delivery — {name}",
            result.cumulative_counts(bin_width=result.duration / 10)))
    return "\n\n".join(sections)


FIG11_CLAIMS = (
    Claim("every arm starts from the same converged tables at full rate",
          lambda runs: all(result.pre_fail_fps() > 28.0
                           for result in runs.values())),
    Claim("static tables cannot route around the cut, with or without "
          "re-signaling",
          lambda runs: runs["static"].recovery_rate_fps() < 3.0
          and runs["static-resignal"].recovery_rate_fps() < 3.0),
    Claim("dynamic SPF alone re-converges, but the reservation stays on the "
          "dead path and the qosket sheds nearly everything",
          lambda runs: runs["dynamic"].spf_runs > 0
          and runs["dynamic"].lsas_flooded > 0
          and runs["dynamic"].recovery_rate_fps() < 10.0),
    Claim("convergence-triggered make-before-break re-signaling restores "
          "the guaranteed lane on the new path at full rate",
          lambda runs: runs["dynamic-resignal"].resignal_rounds >= 1
          and runs["dynamic-resignal"].recovery_rate_fps() >= 25.0
          and runs["dynamic-resignal"].recovery_rate_fps()
          > runs["dynamic"].recovery_rate_fps()),
    Claim("transient unroutable drops are accounted, never negative",
          lambda runs: all(result.unroutable_drops >= 0
                           for result in runs.values())),
)


def table1_text(runs: Dict[str, Any]) -> str:
    return render_table1(
        [(name, result.delivered_fraction_under_load(),
          result.latency_under_load()) for name, result in runs.items()],
        [result.jitter_under_load() for result in runs.values()])


def _delivered(runs: Dict[str, Any], name: str) -> float:
    return runs[name].delivered_fraction_under_load()


def _latency(runs: Dict[str, Any], name: str) -> SeriesStats:
    return runs[name].latency_under_load()


TABLE1_CLAIMS = (
    Claim("no adaptation delivers almost nothing under load (paper: 0.83 %)",
          lambda runs: _delivered(runs, "1-none") < 0.05),
    Claim("partial reservation alone delivers about half (paper: 43.9 %)",
          lambda runs: 0.25 < _delivered(runs, "2-partial") < 0.65),
    Claim("full reservation delivers every frame (paper: 100 %)",
          lambda runs: _delivered(runs, "3-full") > 0.995),
    Claim("filtering improves (or preserves) every reservation level",
          lambda runs: _delivered(runs, "5-partial-filtering")
          > _delivered(runs, "2-partial")
          and _delivered(runs, "6-full-filtering") > 0.995),
    Claim("reservations slash latency and jitter under load",
          lambda runs: _latency(runs, "3-full").mean
          < _latency(runs, "1-none").mean / 5
          and _latency(runs, "3-full").std < _latency(runs, "1-none").std),
    Claim("filtering + partial reservation approaches full-reservation "
          "delivery at a fraction of the reserved bandwidth",
          lambda runs: _delivered(runs, "5-partial-filtering") > 0.80),
)


def table2_text(runs: Dict[str, Any]) -> str:
    return render_table2({
        name: result.algorithm_stats for name, result in runs.items()})


def _every_algorithm(test: Callable[[SeriesStats, SeriesStats, SeriesStats],
                                    bool]) -> Callable[[Dict[str, Any]], bool]:
    """``test(no load, load, load + reserve)`` for each of table 2's
    algorithms."""
    return _on_arms(lambda baseline, loaded, reserved: all(
        test(baseline.stats(algorithm), loaded.stats(algorithm),
             reserved.stats(algorithm))
        for algorithm in ("Kirsch", "Prewitt", "Sobel")))


TABLE2_CLAIMS = (
    Claim("under load, the execution time increased significantly",
          _every_algorithm(lambda base, under, restored:
                           under.mean > base.mean * 1.10)),
    Claim("under load, the execution times varied more than when there was "
          "no load",
          _every_algorithm(lambda base, under, restored:
                           under.std > base.std + 0.005)),
    Claim("adding a CPU reservation reduced the execution time under load "
          "to values comparable to those exhibited with no load",
          _every_algorithm(lambda base, under, restored:
                           abs(restored.mean - base.mean)
                           <= 0.02 * base.mean)),
    Claim("...with much smaller variability",
          _every_algorithm(lambda base, under, restored:
                           restored.std < under.std / 3)),
)


def ablation_ecn_text(runs: Dict[str, Dict[str, Any]]) -> str:
    return render_table(
        ("bottleneck qdisc", "max queue (pkts)", "probe RTT (mean)",
         "probe RTT (worst)", "bulk throughput", "ECN marks", "drops"),
        [(name,
          r["max_queue"],
          f"{r['mean_probe_rtt'] * 1e3:.1f} ms",
          f"{r['worst_probe_rtt'] * 1e3:.1f} ms",
          f"{r['bulk_throughput_mbps']:.2f} Mbps",
          r["marked"], r["dropped"])
         for name, r in runs.items()])


ABLATION_ECN_CLAIMS = (
    Claim("RED + ECN keeps the standing queue about an order of magnitude "
          "shorter",
          _on_arms(lambda fifo, red:
                   red["max_queue"] < fifo["max_queue"] / 3)),
    Claim("...which interactive probes feel directly",
          _on_arms(lambda fifo, red:
                   red["mean_probe_rtt"] < fifo["mean_probe_rtt"] / 2)),
    Claim("...without giving up meaningful bulk throughput or causing drops",
          _on_arms(lambda fifo, red: red["bulk_throughput_mbps"]
                   > fifo["bulk_throughput_mbps"] * 0.6
                   and red["marked"] > 0 and red["dropped"] == 0)),
)


def ablation_phb_text(runs: Dict[str, Dict[str, Any]]) -> str:
    rows = []
    for name, r in runs.items():
        recorder = r["recorder"]
        stats = recorder.latency.stats()
        rows.append((
            name,
            f"{recorder.delivery_fraction() * 100:.1f}%",
            f"{stats.mean * 1e3:.1f} ms",
            f"{stats.std * 1e3:.1f} ms",
        ))
    return render_table(
        ("bottleneck qdisc", "delivered", "mean latency", "std"), rows)


ABLATION_PHB_CLAIMS = (
    Claim("EF marking is useless without an honouring PHB",
          _on_arms(lambda fifo, diffserv:
                   fifo["recorder"].delivery_fraction() < 0.7
                   and fifo["recorder"].latency.stats().mean > 0.05)),
    Claim("...and decisive with one",
          _on_arms(lambda fifo, diffserv:
                   diffserv["recorder"].delivery_fraction() > 0.99
                   and diffserv["recorder"].latency.stats().mean < 0.01)),
)


def ablation_reserve_policy_text(runs: Dict[str, Dict[str, Any]]) -> str:
    return render_table(
        ("enforcement", "reserved-task CPU share", "background CPU share"),
        [(name,
          f"{r['reserved_cpu'] / RESERVE_POLICY_DURATION * 100:.1f}%",
          f"{r['background_cpu'] / RESERVE_POLICY_DURATION * 100:.1f}%")
         for name, r in runs.items()])


def _share(r: Dict[str, Any], task: str) -> float:
    """``task``'s CPU time as a share of the ablation's run."""
    return r[task] / RESERVE_POLICY_DURATION


#: The reserved thread's utilization, C / T.
_RESERVED_UTILIZATION = RESERVE_POLICY_CPU[0] / RESERVE_POLICY_CPU[1]

ABLATION_RESERVE_POLICY_CLAIMS = (
    Claim("HARD: the reserved task gets exactly its reservation, no more",
          _on_arms(lambda hard, soft: abs(_share(hard, "reserved_cpu")
                                          - _RESERVED_UTILIZATION) < 0.02)),
    Claim("HARD: ...so the background work gets everything else",
          _on_arms(lambda hard, soft:
                   _share(hard, "background_cpu") > 0.65)),
    Claim("SOFT: the reserved task overruns into idle/low-priority time",
          _on_arms(lambda hard, soft: _share(soft, "reserved_cpu")
                   > _RESERVED_UTILIZATION + 0.1)),
    Claim("both meet the guarantee",
          _on_arms(lambda hard, soft: _share(soft, "reserved_cpu")
                   >= _RESERVED_UTILIZATION - 0.01)),
)


def ablation_priority_driven_text(runs: Dict[str, Dict[str, Any]]) -> str:
    rows = []
    for policy_name, r in runs.items():
        for task, _, _ in PRIORITY_DRIVEN_TASKS:
            recorder = r["response"][task]
            stats = recorder.stats()
            rows.append((
                policy_name, task, stats.count,
                f"{stats.mean * 1e3:.0f} ms",
                deadline_misses(recorder),
            ))
    return render_table(
        ("allocation", "task", "jobs", "mean response", "deadline misses"),
        rows)


ABLATION_PRIORITY_DRIVEN_CLAIMS = (
    Claim("arrival order starves the late-arriving critical task",
          _on_arms(lambda arrival, prioritized:
                   deadline_misses(arrival["response"]["navigation"]) > 5)),
    Claim("priority order protects it completely",
          _on_arms(lambda arrival, prioritized:
                   deadline_misses(prioritized["response"]["navigation"])
                   == 0)),
    Claim("two reserved tasks share the boost band, so the critical task's "
          "mean response stays inside the period",
          _on_arms(lambda arrival, prioritized:
                   prioritized["response"]["navigation"].stats().mean < 1.0)),
    Claim("capacity is conserved: exactly one task loses out either way",
          _on_arms(lambda arrival, prioritized:
                   deadline_misses(prioritized["response"]["logging"]) > 5
                   and deadline_misses(arrival["response"]["logging"]) == 0)),
)
