"""Unit tests for the tracer core and its sinks."""

import io
import json

import pytest

from repro.sim import Kernel
from repro.obs import (
    JsonlSink,
    RingBufferSink,
    TraceRecord,
    Tracer,
    read_jsonl,
)


def test_kernel_has_no_tracer_by_default():
    assert Kernel().tracer is None


def test_attach_and_detach():
    kernel = Kernel()
    tracer = Tracer().attach(kernel)
    assert kernel.tracer is tracer
    tracer.detach()
    assert kernel.tracer is None


def test_double_attach_rejected():
    kernel = Kernel()
    Tracer().attach(kernel)
    with pytest.raises(RuntimeError):
        Tracer().attach(kernel)


def test_records_carry_sim_time():
    kernel = Kernel()
    tracer = Tracer().attach(kernel)
    kernel.schedule(2.5, lambda: tracer.instant("sim", "tick"))
    kernel.run()
    ticks = [r for r in tracer.records if r.kind == "tick"]
    assert [r.time for r in ticks] == [2.5]


def test_begin_end_instant_phases():
    tracer = Tracer()
    tracer.begin("orb", "request", span="req:1", request=1)
    tracer.instant("net", "hop.rx", fields={"packet": 7})
    tracer.end("orb", "request", span="req:1", request=1)
    phases = [(r.kind, r.phase) for r in tracer.records]
    assert phases == [("request", "B"), ("hop.rx", "I"), ("request", "E")]


def test_layer_filter_discards_other_layers():
    tracer = Tracer(layers=["orb"])
    tracer.instant("net", "hop.rx")
    tracer.instant("orb", "dispatch")
    assert [r.layer for r in tracer.records] == ["orb"]
    assert tracer.records_emitted == 1


def test_counts_by_layer_and_kind():
    tracer = Tracer()
    tracer.instant("net", "hop.rx")
    tracer.instant("net", "hop.rx")
    tracer.instant("os", "cpu.dispatch")
    assert tracer.counts[("net", "hop.rx")] == 2
    assert tracer.counts[("os", "cpu.dispatch")] == 1
    assert tracer.records_emitted == 3


def test_ring_buffer_bounds_memory():
    sink = RingBufferSink(capacity=3)
    tracer = Tracer(sinks=[sink])
    for i in range(10):
        tracer.instant("sim", "tick", fields={"i": i})
    assert len(sink) == 3
    assert sink.evicted == 7
    assert [r.fields["i"] for r in sink.records] == [7, 8, 9]


def test_ring_buffer_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_multiple_sinks_all_receive():
    a, b = RingBufferSink(), RingBufferSink()
    tracer = Tracer(sinks=[a])
    tracer.add_sink(b)
    tracer.instant("sim", "tick")
    assert len(a) == 1 and len(b) == 1


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    kernel = Kernel()
    tracer = Tracer(sinks=[JsonlSink(path)], layers=["orb"]).attach(kernel)
    kernel.schedule(1.0, lambda: tracer.begin(
        "orb", "request", span="req:1", request=1,
        fields={"dscp": "EF", "bytes": 128}))
    kernel.run()
    tracer.close()
    rows = read_jsonl(path)
    assert rows == [{
        "t": 1.0, "layer": "orb", "kind": "request", "ph": "B",
        "span": "req:1", "req": 1, "dscp": "EF", "bytes": 128,
    }]


def test_jsonl_accepts_file_object():
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    sink.emit(TraceRecord(0.5, "net", "hop.rx"))
    sink.close()  # must not close a caller-owned file object
    assert json.loads(buffer.getvalue()) == {
        "t": 0.5, "layer": "net", "kind": "hop.rx", "ph": "I",
    }


def test_to_dict_coerces_non_json_values():
    record = TraceRecord(0.0, "os", "x", fields={"obj": object()})
    out = record.to_dict()
    assert isinstance(out["obj"], str)
    json.dumps(out)  # must be serializable


def test_tracing_does_not_change_kernel_results():
    def run(with_tracer):
        kernel = Kernel()
        if with_tracer:
            Tracer().attach(kernel)
        fired = []
        for i in range(50):
            kernel.schedule(float((i * 13) % 17), fired.append, i)
        kernel.run()
        return fired, kernel.now

    assert run(False) == run(True)
