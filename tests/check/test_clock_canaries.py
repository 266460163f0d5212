"""The time law on a live kernel: clock canaries.

The kernel alone writes its clock, and its traced dispatch loop checks
the time law there: each entry's time is compared with the clock before
the clock moves (DESIGN §12).  Three packet-path handles push their own
heap entries (``sim/kernel.py``, "Re-arming in place"), past every
check of ``schedule`` / ``rearm``, so that comparison is all that
stands between a wrong delay at one of those sites and a clock that
runs backwards.  Each canary re-breaks one site in process, its first
entry due a millisecond before the clock, runs a real fig 9 arm under
``default_suite()`` and requires "ran backwards" at that handle's
dispatch.  The last one re-breaks ``run(until)``'s horizon guard and
requires the teardown law.
"""

from heapq import heappush

import pytest

import repro.net.link as link_module
import repro.net.traffic as traffic_module
from repro.check import InvariantViolation, World, default_suite
from repro.net.link import Interface
from repro.net.traffic import CbrTrafficSource
from repro.sim import Kernel


def backdating(target):
    """``heappush``, except that the first entry for a handle of
    ``target`` (a function) is due a millisecond before the clock."""
    done = []

    def push(heap, entry):
        time, seq, event = entry
        if not done and getattr(event.callback, "__func__", None) is target:
            done.append(entry)
            entry = (event._kernel.now - 1e-3, seq, event)
        heappush(heap, entry)

    return push


SITES = {
    "transmitter": (link_module, Interface._transmit_done),
    "rx-ring": (link_module, Interface._deliver),
    "cbr-emitter": (traffic_module, CbrTrafficSource._emit),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_handle_re_armed_into_the_past_stops_the_run(site, monkeypatch):
    from repro.scale.capacity_exp import all_arms, run_capacity_experiment
    module, target = SITES[site]
    monkeypatch.setattr(module, "heappush", backdating(target))
    arm = next(a for a in all_arms() if a.name == "adaptive")
    with pytest.raises(InvariantViolation) as err:
        run_capacity_experiment(arm, streams=4, duration=1.0, seed=7,
                                checks=default_suite())
    violation = err.value
    assert violation.checker == "time-monotonic"
    assert "ran backwards" in violation.message
    assert violation.context["event"] == target.__qualname__
    assert violation.context["event_time"] < violation.context["previous_time"]


class UnguardedHorizon(Kernel):
    """``run(until)`` without its ``until > self.now`` guard."""

    def run(self, until=None):
        super().run(until)
        if until is not None and not self._stopped:
            self.now = until


def test_a_horizon_behind_the_clock_fails_the_teardown_law():
    kernel = UnguardedHorizon()
    suite = default_suite().install(World(kernel))
    for t in (1.0, 4.0, 5.0):
        kernel.schedule(t, lambda: None)
    kernel.run(until=6.0)
    suite.final_check()
    kernel.run(until=3.0)
    assert kernel.now == 3.0
    with pytest.raises(InvariantViolation,
                       match="kernel clock ended before the last trace "
                             "record") as err:
        suite.final_check()
    assert err.value.checker == "time-monotonic"
    assert err.value.context["last_record"] == 6.0
