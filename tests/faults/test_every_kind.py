"""Every fault kind runs from a figure.

Each kind in :data:`repro.faults.plan.KINDS` is injected into one short
figure arm as a one-event ``--set fault_plan=`` plan, under a tracer,
and the ``fault`` layer must record that kind.  A kind no scenario can
target (one whose targets only a hand-built rig registers) fails here.
"""

import json

import pytest

from repro.cli import resolve_figure, select
from repro.experiments.runner import scenario_function
from repro.faults.plan import KINDS
from repro.obs import RingBufferSink, Tracer

FIG8 = ("fig8", "static", ["duration=4"])
TABLE1 = ("table1", "3-full",
          ["duration=8", "load_start=2", "load_end=5"])
LINK = ["router", "dst"]

#: kind -> (figure, arm, settings), the one event's fields
CASES = {
    "link_flap": (FIG8, {"link": LINK, "at": 1, "duration": 1}),
    "link_down": (FIG8, {"link": LINK, "at": 3}),
    "loss_burst": (FIG8, {"link": LINK, "at": 1, "duration": 1,
                          "loss": 0.5}),
    "link_degrade": (FIG8, {"link": LINK, "at": 1, "duration": 1,
                            "factor": 0.5}),
    "node_crash": (FIG8, {"node": "router", "at": 1, "duration": 1}),
    "resv_loss": (TABLE1, {"flow": "avflow:uav-video", "at": 3}),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_runs_from_a_figure(kind):
    (figure_word, arm, settings), fields = CASES[kind]
    plan = json.dumps([{"kind": kind, **fields}])
    figure = resolve_figure(figure_word)
    (spec,) = select(figure, [arm], [*settings, f"fault_plan={plan}"],
                     seed=1).specs()
    sink = RingBufferSink()
    scenario_function(figure.scenario)(
        **spec.call_kwargs(), tracer=Tracer(sinks=[sink], layers=["fault"]))
    kinds = {record.kind for record in sink.records}
    assert kinds == {kind}
