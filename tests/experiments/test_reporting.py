"""Tests for paper-style report rendering."""

from repro.obs import SeriesStats
from repro.experiments.reporting import (
    render_cumulative_delivery,
    render_figure2,
    render_latency_table,
    render_series,
    render_table,
    render_table1,
    render_table2,
)
from repro.experiments.priority_exp import PropagationHop
from repro.oskernel import OsType
from repro.net import Dscp


def test_render_table_alignment():
    text = render_table(("a", "long-header"), [("1", "2"), ("333", "4")])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "long-header" in lines[0]
    assert all(len(line) >= len("333") for line in lines[2:])


def test_render_figure2_contains_chain():
    hops = [
        PropagationHop("client", OsType.QNX, "client", 100, 16, Dscp.EF),
        PropagationHop("middle", OsType.LYNXOS, "server", 100, 128, Dscp.EF),
        PropagationHop("server", OsType.SOLARIS, "server", 100, 136, Dscp.EF),
    ]
    text = render_figure2(hops)
    for token in ("qnx", "16", "lynxos", "128", "solaris", "136", "EF"):
        assert token in text


def test_render_latency_table():
    stats = SeriesStats([0.001, 0.002, 0.003])
    text = render_latency_table({"fig4a": {"sender1": stats}})
    assert "fig4a" in text
    assert "sender1" in text
    assert "2.00" in text  # mean in ms


def test_render_table1():
    stats = SeriesStats([0.3, 0.35])
    text = render_table1([("no adaptation", 0.0083, stats)])
    assert "0.83%" in text
    assert "325.0 ms" in text


def test_render_table2():
    stats = {"no-load": {alg: SeriesStats([0.18]) for alg in
                         ("Kirsch", "Prewitt", "Sobel")}}
    text = render_table2(stats)
    assert "Kirsch" in text
    assert "180.0" in text


def test_render_series_and_cumulative():
    text = render_series("fig", [(0.0, 0.001), (1.0, 0.5)])
    assert "t=" in text and "500.000" in text
    cumulative = render_cumulative_delivery("fig7", [(0.0, 10, 8)])
    assert "10" in cumulative and "8" in cumulative
