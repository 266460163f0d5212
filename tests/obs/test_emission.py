"""``Tracer.instant/begin/end`` and ``Tracer.emit`` against ``Tracer.record``.

The three helpers are the hot entry points of every trace site; they
must produce exactly the record ``record(..., phase)`` produces, under
the same layer allow-list and with the same bookkeeping.  ``emit``
takes the fields as keywords and must pack them into the same dict, in
call order.  Likewise the ``"device.iface"`` label is computed once per
interface and must stay what the trace sites used to format per record.
"""

import pytest

from repro.sim import Kernel
from repro.net import Network
from repro.net.topology import generate_topology
from repro.obs import RingBufferSink, Tracer
from repro.obs.trace import PHASE_BEGIN, PHASE_END, PHASE_INSTANT, TraceRecord

#: (helper name, phase record() is given, positional arguments,
#: span/flow/request keywords, the fields dict).
CALLS = [
    ("instant", PHASE_INSTANT, ("net", "hop.rx"), dict(flow="video"),
     {"packet": 7, "iface": "r.r->d", "dscp": "EF", "hops": 2}),
    ("instant", PHASE_INSTANT, ("sim", "event.dispatch"), {},
     {"callback": "Interface._deliver", "seq": 11}),
    ("instant", PHASE_INSTANT, ("os", "tick"), {}, None),
    ("instant", PHASE_INSTANT, ("orb", "marshal"),
     dict(span="req:3", request=3), {"bytes": 120}),
    ("begin", PHASE_BEGIN, ("os", "work"), dict(span="work:5"),
     {"cpu": "h", "thread": "t", "amount": 0.25}),
    ("begin", PHASE_BEGIN, ("orb", "request"),
     dict(span="req:9", request=9, flow="giop"), None),
    ("begin", PHASE_BEGIN, ("av", "frame"), dict(span="frame:f:1"), None),
    ("end", PHASE_END, ("os", "work"), dict(span="work:5"),
     {"cpu": "h", "thread": "t", "response": 0.5}),
    ("end", PHASE_END, ("orb", "request"), dict(span="req:9", request=9),
     None),
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
        for helper, _, args, named, fields in CALLS:
            getattr(tracer, helper)(*args, **named, fields=fields)

    def by_record(tracer):
        for _, phase, args, named, fields in CALLS:
            tracer.record(*args, phase, **named, fields=fields)

    def by_emit(tracer):
        for _, phase, args, named, fields in CALLS:
            tracer.emit(*args, phase, **named, **(fields or {}))

    recorded = traced(layers, by_record)
    for other in (traced(layers, by_helper), traced(layers, by_emit)):
        assert ([as_tuple(r) for r in other.sinks[0].records]
                == [as_tuple(r) for r in recorded.sinks[0].records])
        assert other.records_emitted == recorded.records_emitted
        assert other.counts == recorded.counts
    # Every sink got every record, and only allowed layers got through.
    assert all(len(sink) == recorded.records_emitted
               for sink in recorded.sinks)
    wanted = [c for c in CALLS if layers is None or c[2][0] in layers]
    assert recorded.records_emitted == len(wanted)
    assert [r.phase for r in recorded.sinks[0].records] == [c[1] for c in wanted]
    assert all(r.time == 1.5 for r in recorded.sinks[0].records)


def test_empty_fields_are_none_and_field_order_is_call_order():
    tracer = Tracer()
    tracer.instant("os", "tick")
    tracer.begin("av", "frame", span="frame:f:1")
    tracer.end("av", "frame", span="frame:f:1", flow="f")
    tracer.instant("net", "hop.rx", flow="f",
                   fields={"packet": 7, "iface": "a.b", "hops": 1})
    tracer.emit("net", "hop.rx", packet=7, flow="f", iface="a.b", hops=1)
    tracer.emit("os", "tick")
    bare, begun, ended, hop, emitted, emitted_bare = tracer.sinks[0].records
    assert bare.fields is None and begun.fields is None
    assert ended.fields is None and ended.flow == "f"
    assert emitted_bare.fields is None
    assert (begun.span, begun.phase) == ("frame:f:1", PHASE_BEGIN)
    # JSONL bytes follow dict order: the site's dict display, or the
    # keyword order of an ``emit`` call.
    for record in (hop, emitted):
        assert list(record.fields) == ["packet", "iface", "hops"]
        assert list(record.to_dict()) == ["t", "layer", "kind", "ph", "flow",
                                          "packet", "iface", "hops"]


def test_interface_label_is_device_dot_iface_on_a_waxman_graph():
    net = Network(Kernel(), default_bandwidth_bps=10e6)
    generate_topology(net, "waxman", routers=24, seed=5)
    interfaces = [iface for link in net.links for iface in (link.a, link.b)]
    assert len(interfaces) >= 2 * 24
    for iface in interfaces:
        assert iface.label == f"{iface.owner.name}.{iface.name}"
    assert len({iface.label for iface in interfaces}) == len(interfaces)
