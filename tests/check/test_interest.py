"""A checker is handed every record after which its law's state can move.

``QdiscAccountingChecker`` and ``TokenBucketChecker`` declare only the
record kinds after which the state their laws read can differ, and the
time law is evaluated inside the kernel's traced dispatch loop, where
the clock moves (DESIGN §12).  Both are safe only if the state really
moves nowhere else, so a spy (every layer, every kind) is installed
beside ``default_suite()`` on live arms and compares the state with
what it was at the previous record:

* the kernel clock moves only at a ``sim`` ``event.dispatch`` (the
  loop's comparison sits right before it, and ``TimeMonotonicityChecker``
  takes only the ``clock.regress`` that comparison reports), or forward
  between runs (``run(until)`` advancing to its horizon, which the
  teardown law covers); at a dispatch it never moves back;
* a port's ``enqueued`` / ``dequeued`` / ``dropped`` / ``drops_by_flow``
  move only at a kind the qdisc law declares, naming that port;
* a policing bucket's ``_tokens`` move only at a kind the token-bucket
  law declares, naming its port and flow.

A move anywhere else would be a state change a narrowed checker does
not re-check until a later record or teardown.
"""

import pytest

from repro.check import (
    CheckSuite,
    InvariantChecker,
    InvariantViolation,
    QdiscAccountingChecker,
    TokenBucketChecker,
    default_suite,
)
from repro.cli import select
from repro.experiments.runner import scenario_function
from repro.experiments.scenario_registry import FIGURES
from repro.net.link import Interface


class StateSpy(InvariantChecker):
    """Fails at the first record after which watched state moved at a
    kind (or port, or flow) that no narrowed checker is handed."""

    name = "state-spy"

    def __init__(self):
        super().__init__()
        #: What moved, by record kind: ``clock`` / ``books`` / ``tokens``.
        self.moves = {}
        self.kinds_seen = set()

    def attach(self, world):
        super().attach(world)
        self._kernel = world.kernel
        self._now = world.kernel.now
        self._qdiscs = world.qdiscs()
        self._books = {label: self._books_of(q)
                       for label, q in self._qdiscs.items()}
        self._policing = [(label, qdisc)
                          for label, qdisc in self._qdiscs.items()
                          if hasattr(qdisc, "_buckets")]
        self._tokens = self._buckets()

    def detach(self):
        super().detach()
        self._kernel = self._qdiscs = self._books = None
        self._policing = self._tokens = None

    @staticmethod
    def _books_of(qdisc):
        return (qdisc.enqueued, qdisc.dequeued, qdisc.dropped,
                dict(qdisc.drops_by_flow))

    def _buckets(self):
        """``(port, flow) -> (bucket, tokens)`` on every policing queue."""
        return {(label, flow): (bucket, bucket._tokens)
                for label, qdisc in self._policing
                for flow, bucket in qdisc._buckets.items()}

    def _moved(self, what, record):
        key = (what, f"{record.layer}.{record.kind}")
        self.moves[key] = self.moves.get(key, 0) + 1

    def on_event(self, record):
        kind = (record.layer, record.kind)
        self.kinds_seen.add(kind)
        port = (record.fields or {}).get("iface")

        now = self._kernel.now
        if now != self._now:
            if not (kind == ("sim", "event.dispatch")
                    or (not self._kernel._running and now > self._now)):
                self.fail("clock moved at an undeclared record",
                          event=kind, before=self._now, after=now)
            if not now > self._now:
                self.fail("clock moved back at a dispatch",
                          event=kind, before=self._now, after=now)
            self._moved("clock", record)
            self._now = now

        for label, qdisc in self._qdiscs.items():
            books = self._books[label]
            if (qdisc.enqueued, qdisc.dequeued, qdisc.dropped) == books[:3] \
                    and qdisc.drops_by_flow == books[3]:
                continue
            if not (record.layer == "net"
                    and record.kind in QdiscAccountingChecker.kinds
                    and port == label):
                self.fail("queue books moved at an undeclared record",
                          event=kind, qdisc=label, named=port)
            self._moved("books", record)
            self._books[label] = self._books_of(qdisc)

        tokens = self._buckets()
        for key, (bucket, level) in tokens.items():
            before = self._tokens.get(key)
            if before is None or before[0] is not bucket:
                continue  # installed since: a fresh bucket, not a charge
            if level == before[1]:
                continue
            if not (record.layer == "net"
                    and record.kind in TokenBucketChecker.kinds
                    and (port, record.flow) == key):
                self.fail("bucket tokens moved at an undeclared record",
                          event=kind, bucket=key, named=(port, record.flow))
            self._moved("tokens", record)
        self._tokens = tokens


#: The arms, narrowed the way ``repro run --arm/--set`` narrows them.
ARMS = {
    "fig9-adaptive": ("fig9_capacity", "adaptive",
                      ["duration=3", "streams=8"]),
    "table1-3-full": ("table1_network_reservation", "3-full",
                      ["duration=8", "load_start=2", "load_end=5"]),
    # The backbone cut lands on a frame being sent: one ``hop.loss``.
    "fig11-dynamic-resignal": ("fig11_route", "dynamic-resignal",
                               ["routers=12", "duration=4",
                                "fail_at=3.0101"]),
}


def run_spied(arm):
    figure, name, settings = ARMS[arm]
    (spec,) = select(FIGURES[figure], [name], settings, seed=1).specs()
    spy = StateSpy()
    suite = CheckSuite(default_suite().checkers + [spy])
    scenario_function(spec.scenario)(**spec.call_kwargs(), checks=suite)
    return spy


@pytest.fixture(scope="module", params=sorted(ARMS))
def spied(request):
    return request.param, run_spied(request.param)


def test_state_moves_only_where_a_narrowed_checker_looks(spied):
    arm, spy = spied
    moves = spy.moves
    # Not vacuous: the clock, the books of every declared kind and
    # (on the reserved arms) the buckets all moved, and the records
    # the narrowed checkers no longer take were in the stream.
    assert moves["clock", "sim.event.dispatch"] > 100
    assert ("sim", "clock.regress") not in spy.kinds_seen
    for kind in QdiscAccountingChecker.kinds:
        assert moves["books", f"net.{kind}"] > 0, kind
    assert ("net", "hop.rx") in spy.kinds_seen
    if arm != "fig11-dynamic-resignal":
        assert moves["tokens", "net.hop.enqueue"] > 0
    else:
        assert ("net", "hop.loss") in spy.kinds_seen


def test_the_spy_catches_books_moved_at_a_delivery(monkeypatch):
    """Books bumped (length-neutrally, so no law of the suite trips)
    from ``Interface._deliver`` move at a ``hop.rx``: the spy fails."""
    deliver = Interface._deliver

    def bumping(self, wire):
        self.qdisc.enqueued += 1
        self.qdisc.dequeued += 1
        deliver(self, wire)

    monkeypatch.setattr(Interface, "_deliver", bumping)
    with pytest.raises(InvariantViolation) as err:
        run_spied("fig9-adaptive")
    assert err.value.checker == "state-spy"
    assert err.value.context["event"] == ("net", "hop.rx")
