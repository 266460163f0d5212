"""Paper-style text rendering of experiment results.

Each function returns a string shaped like the corresponding table or
figure caption in the paper, so benchmark output can be eyeballed
against the original side by side.

The ``*_text`` functions at the bottom are the figure renderers the
table in :mod:`repro.experiments.scenario_registry` refers to: each
takes ``runs``, a figure's ``{arm label: payload}`` in table order, and
returns the text of ``results/<figure>.txt``.  They read everything
from ``runs``, so they work on any subset of a figure's arms.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.binding import PropagationHop
from repro.core.metrics import SeriesStats
from repro.experiments.ablations import (
    PRIORITY_DRIVEN_TASKS,
    RESERVE_POLICY_DURATION,
    deadline_misses,
)


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
def fig2_text(runs: Dict[str, Sequence[PropagationHop]]) -> str:
    return "\n\n".join(render_figure2(hops) for hops in runs.values())


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


def fig7_text(runs: Dict[str, Any]) -> str:
    return "\n\n".join(
        render_cumulative_delivery(
            f"Fig 7 — {label}",
            result.cumulative_counts(bin_width=result.duration / 15))
        for label, result in runs.items())


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


def table1_text(runs: Dict[str, Any]) -> str:
    return render_table1(
        [(name, result.delivered_fraction_under_load(),
          result.latency_under_load()) for name, result in runs.items()],
        [result.jitter_under_load() for result in runs.values()])


def table2_text(runs: Dict[str, Any]) -> str:
    return render_table2({
        name: result.algorithm_stats for name, result in runs.items()})


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


def ablation_reserve_policy_text(runs: Dict[str, Dict[str, Any]]) -> str:
    return render_table(
        ("enforcement", "reserved-task CPU share", "background CPU share"),
        [(name,
          f"{r['reserved_cpu'] / RESERVE_POLICY_DURATION * 100:.1f}%",
          f"{r['background_cpu'] / RESERVE_POLICY_DURATION * 100:.1f}%")
         for name, r in runs.items()])


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
