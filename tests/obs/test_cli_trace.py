"""The ``repro trace`` subcommand end to end."""

import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.experiments import testbed  # not the class: pytest collects Test*
from repro.obs import LAYERS, JsonlSink


def test_trace_quickstart_writes_jsonl(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["trace", "--scenario", "quickstart", "--quiet",
                 "-o", str(path)]) == 0
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows
    layers = {row["layer"] for row in rows}
    assert {"sim", "orb", "net", "os", "quo"} <= layers
    for row in rows:
        assert {"t", "layer", "kind", "ph"} <= row.keys()
    # Times are monotonically non-decreasing (single kernel clock).
    times = [row["t"] for row in rows]
    assert times == sorted(times)
    out = capsys.readouterr().out
    assert "per-stage request latency" in out


def test_trace_layer_filter(tmp_path):
    path = tmp_path / "orb-only.jsonl"
    assert main(["trace", "--scenario", "quickstart", "--quiet",
                 "--layers", "orb", "-o", str(path)]) == 0
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows and all(row["layer"] == "orb" for row in rows)


def test_trace_ring_buffer_mode(tmp_path, capsys, monkeypatch):
    """Without ``-o`` the breakdown is the only sink: it prints, and
    nothing is written."""
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--scenario", "quickstart", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "per-stage request latency" in out
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Any figure arm, narrowed the way ``repro run`` narrows it
# ----------------------------------------------------------------------
def test_trace_a_figure_arm_and_reconcile_with_its_recorders(tmp_path, capsys):
    path = tmp_path / "t1.jsonl"
    assert main(["trace", "--scenario", "table1", "--arm", "2-partial",
                 "--set", "duration=6", "--set", "load_start=2",
                 "--set", "load_end=4", "-o", str(path)]) == 0
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert {"sim", "net", "orb", "av"} <= {row["layer"] for row in rows}
    out = capsys.readouterr().out
    assert "reconcile avflow:uav-video" in out
    assert "(|diff| 0.00e+00 s)" in out


def test_trace_a_registered_example_and_reconcile_with_its_payload(capsys):
    """``uav`` is traced as its own one arm; its receivers' latency stats
    come from the plain payload, and a run that ends before the streams
    are bound still returns one."""
    assert main(["trace", "--scenario", "uav", "--set", "duration=6",
                 "--set", "burst_start=2", "--set", "burst_stop=4"]) == 0
    out = capsys.readouterr().out
    for flow in ("avflow:uav1-out", "avflow:uav2-out"):
        assert f"reconcile {flow}: " in out
    assert out.count("(|diff| 0.00e+00 s)") == 2
    assert main(["trace", "--scenario", "uav", "--set", "duration=0.001",
                 "--quiet"]) == 0


def test_trace_must_be_narrowed_to_one_run():
    with pytest.raises(SystemExit, match="selects 7 of fig9_capacity.*"
                                         "--set streams=N; arms: best-effort"):
        main(["trace", "--scenario", "fig9", "--arm", "adaptive"])
    with pytest.raises(SystemExit, match="unknown arm.*choose from: 1-none"):
        main(["trace", "--scenario", "table1", "--arm", "nonsense"])
    with pytest.raises(SystemExit, match="unknown --set key.*one of: duration"):
        main(["trace", "--scenario", "uav", "--set", "routers=3"])
    # A registered scenario that needs an arm is traced through a figure.
    with pytest.raises(SystemExit, match="unknown figure 'priority'"):
        main(["trace", "--scenario", "priority"])


# ----------------------------------------------------------------------
# --layers names real layers
# ----------------------------------------------------------------------
def test_unknown_layer_is_rejected_with_the_choices(capsys):
    assert main(["trace", "--scenario", "quickstart", "--quiet",
                 "--layers", "net,nett"]) == 2
    err = capsys.readouterr().err
    assert "unknown layer(s) nett" in err
    assert ",".join(LAYERS) in err


def test_layers_tuple_names_every_emission_site():
    source = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    site = re.compile(r'tracer\.(?:instant|begin|end|emit)\(\s*"(\w+)"')
    emitted = {layer for path in source.rglob("*.py")
               for layer in site.findall(path.read_text(encoding="utf-8"))}
    assert emitted == set(LAYERS)


# ----------------------------------------------------------------------
# The trace survives the run that raises
# ----------------------------------------------------------------------
def test_trace_is_flushed_and_closed_when_the_run_raises(tmp_path,
                                                         monkeypatch):
    opened = []

    class RecordingSink(JsonlSink):
        def __init__(self, target):
            super().__init__(target)
            opened.append(self)

    def run_then_raise(self, until=None):
        self.kernel.run(until=1.0)
        raise RuntimeError("stream setup failed (patched in)")

    monkeypatch.setattr("repro.cli.JsonlSink", RecordingSink)
    monkeypatch.setattr(testbed.Testbed, "run", run_then_raise)
    path = tmp_path / "partial.jsonl"
    with pytest.raises(RuntimeError, match="stream setup failed"):
        main(["trace", "--scenario", "fig4", "--arm", "fig4a-control-idle",
              "--quiet", "-o", str(path)])
    (sink,) = opened
    assert sink._file.closed
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == sink.records_written > 0
    assert rows[-1]["t"] <= 1.0
