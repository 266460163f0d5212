"""``Tracer.instant/begin/end`` against ``Tracer.emit``, field for field.

The three helpers are the hot entry points of every trace site; they
must produce exactly the record ``emit(..., phase)`` produces, under
the same layer allow-list and with the same bookkeeping.  Likewise the
``"device.iface"`` label is computed once per interface and must stay
what the trace sites used to format per record.
"""

import pytest

from repro.sim import Kernel
from repro.net import Network
from repro.net.topology import generate_topology
from repro.obs import RingBufferSink, Tracer
from repro.obs.trace import PHASE_BEGIN, PHASE_END, PHASE_INSTANT, TraceRecord

#: (helper name, phase emit() is given, positional + keyword arguments).
CALLS = [
    ("instant", PHASE_INSTANT, ("net", "hop.rx"),
     dict(flow="video", packet=7, iface="r.r->d", dscp="EF", hops=2)),
    ("instant", PHASE_INSTANT, ("sim", "event.dispatch"),
     dict(callback="Interface._deliver", seq=11)),
    ("instant", PHASE_INSTANT, ("os", "tick"), {}),
    ("instant", PHASE_INSTANT, ("orb", "marshal"),
     dict(span="req:3", request=3, bytes=120)),
    ("begin", PHASE_BEGIN, ("os", "work"),
     dict(span="work:5", cpu="h", thread="t", amount=0.25)),
    ("begin", PHASE_BEGIN, ("orb", "request"),
     dict(span="req:9", request=9, flow="giop")),
    ("begin", PHASE_BEGIN, ("av", "frame"), dict(span="frame:f:1")),
    ("end", PHASE_END, ("os", "work"),
     dict(span="work:5", cpu="h", thread="t", response=0.5)),
    ("end", PHASE_END, ("orb", "request"), dict(span="req:9", request=9)),
]


def as_tuple(record: TraceRecord):
    return tuple(getattr(record, slot) for slot in TraceRecord.__slots__)


def traced(layers, drive):
    kernel = Kernel()
    kernel.schedule(1.5, lambda: None)
    kernel.run()  # records carry a non-zero time
    tracer = Tracer(sinks=[RingBufferSink(), RingBufferSink()],
                    layers=layers).attach(kernel)
    drive(tracer)
    return tracer


@pytest.mark.parametrize("layers", [None, ("net", "os"), ("orb",), ()],
                         ids=["all", "net+os", "orb", "none"])
def test_helpers_equal_emit_field_for_field(layers):
    def by_helper(tracer):
        for helper, _, args, kwargs in CALLS:
            getattr(tracer, helper)(*args, **kwargs)

    def by_emit(tracer):
        for _, phase, args, kwargs in CALLS:
            tracer.emit(*args, phase, **kwargs)

    helped, emitted = traced(layers, by_helper), traced(layers, by_emit)
    assert ([as_tuple(r) for r in helped.records]
            == [as_tuple(r) for r in emitted.records])
    assert helped.records_emitted == emitted.records_emitted
    assert helped.counts == emitted.counts
    # Every sink got every record, and only allowed layers got through.
    assert all(len(sink) == helped.records_emitted for sink in helped.sinks)
    wanted = [c for c in CALLS if layers is None or c[2][0] in layers]
    assert helped.records_emitted == len(wanted)
    assert [r.phase for r in helped.records] == [c[1] for c in wanted]
    assert all(r.time == 1.5 for r in helped.records)


def test_empty_fields_are_none_and_field_order_is_call_order():
    tracer = Tracer()
    tracer.instant("os", "tick")
    tracer.begin("av", "frame", span="frame:f:1")
    tracer.end("av", "frame", span="frame:f:1", flow="f")
    tracer.instant("net", "hop.rx", packet=7, flow="f", iface="a.b", hops=1)
    bare, begun, ended, hop = tracer.records
    assert bare.fields is None and begun.fields is None
    assert ended.fields is None and ended.flow == "f"
    assert (begun.span, begun.phase) == ("frame:f:1", PHASE_BEGIN)
    # JSONL bytes follow dict order: the call site's keyword order.
    assert list(hop.fields) == ["packet", "iface", "hops"]
    assert list(hop.to_dict()) == ["t", "layer", "kind", "ph", "flow",
                                   "packet", "iface", "hops"]


def test_interface_label_is_device_dot_iface_on_a_waxman_graph():
    net = Network(Kernel(), default_bandwidth_bps=10e6)
    generate_topology(net, "waxman", routers=24, seed=5)
    interfaces = [iface for link in net.links for iface in (link.a, link.b)]
    assert len(interfaces) >= 2 * 24
    for iface in interfaces:
        assert iface.label == f"{iface.owner.name}.{iface.name}"
    assert len({iface.label for iface in interfaces}) == len(interfaces)
