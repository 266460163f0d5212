"""Every arm of every figure, green under the invariant suite.

The full matrix behind ``tests/experiments/test_testbed.py`` (which runs
one arm per scenario in tier-1): all arms of all 16 figures at short
timelines with ``default_suite()`` installed by the testbed — queue and
packet conservation, token buckets, reserve ledgers, contract chains
(every frame-filtering qosket's contract is registered with the watched
world), routing and pub-sub laws.  Each arm's kernel must also be
collected once the run is over, while its payload and its suite are
still held: a result is data and an uninstalled suite lets go of the
world.  Not a benchmark: it takes no ``benchmark`` fixture, so
``--benchmark-only`` skips it; CI runs it by path (about 25 s).
"""

import gc
import weakref

import pytest

from repro.check import default_suite
from repro.cli import select
from repro.experiments import testbed
from repro.experiments.runner import scenario_function
from repro.experiments.scenario_registry import FIGURES

#: Short timelines and one sweep point (fig 9 at N=4, fig 10 at N=100,
#: fig 12 at 128 subscribers) as ``--set`` settings, by scenario; the
#: ablations are fixed probes and run as they are.
SHORT = {
    "priority": ["duration=5"],
    "reservation_net": ["duration=12", "load_start=3", "load_end=8"],
    "reservation_cpu": ["duration=6"],
    "faults": ["duration=20"],
    "route": ["routers=24", "duration=12", "fail_at=4"],
    "capacity": ["duration=4", "streams=4"],
    "scale": ["duration=3", "streams=100"],
    "pubsub": ["duration=4", "subscribers=128"],
}
#: Fig 2 reads its chain off the mappings; its kernel never runs.
NEVER_RUNS = {"priority_propagation"}

ARMS = [
    pytest.param(figure._replace(arms=(entry,)), id=f"{figure.name}-{entry[0]}")
    for figure in FIGURES.values() for entry in figure.arms
]


@pytest.mark.parametrize("figure", ARMS)
def test_arm_is_green_under_the_suite(figure, monkeypatch):
    kernels = []
    init = testbed.Testbed.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernels.append(weakref.ref(self.kernel))

    monkeypatch.setattr(testbed.Testbed, "__init__", recording)
    # Narrowed the way ``repro run --set`` narrows it: exactly one run.
    (spec,) = select(figure, [], SHORT.get(figure.scenario, []),
                     seed=1).specs()
    suite = default_suite()
    payload = scenario_function(spec.scenario)(**spec.call_kwargs(),
                                               checks=suite)
    assert (suite.events_dispatched > 0) == (
        figure.scenario not in NEVER_RUNS)
    assert kernels  # every scenario stands on a testbed
    gc.collect()  # with ``payload`` and ``suite`` still held
    assert [ref() for ref in kernels] == [None] * len(kernels)
