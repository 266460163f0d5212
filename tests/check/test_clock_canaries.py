"""The time law on a live kernel: clock canaries.

The kernel alone writes its clock, and its traced dispatch loop checks
the time law there: each entry's time is compared with the clock before
the clock moves (DESIGN §12).  Four hot handles push their own heap
entries (``sim/kernel.py``, "Re-arming in place"): three on the packet
path and the CPU's slice-end handle.  Those pushes pass no check of
``schedule`` / ``rearm``, so that comparison is all that stands between
a wrong delay at one of those sites and a clock that runs backwards.
Each canary re-breaks one site in process, its first in-place entry due
a millisecond before the clock, runs a real fig 9 arm under
``default_suite()`` and requires "ran backwards" at that handle's
dispatch.  The last one re-breaks ``run(until)``'s horizon guard and
requires the teardown law.
"""

from heapq import heappush

import pytest

import repro.net.link as link_module
import repro.net.traffic as traffic_module
import repro.oskernel.cpu as cpu_module
from repro.check import InvariantViolation, World, default_suite
from repro.net.link import Interface
from repro.net.traffic import CbrTrafficSource
from repro.oskernel.cpu import CPU
from repro.sim import Kernel


def backdating(target):
    """``heappush``, except that the first entry for a handle of
    ``target`` (a function) is due a millisecond before the clock.
    Entries that hold no handle (the CPU's ready heap) pass through."""
    done = []

    def push(heap, entry):
        event = entry[-1]
        callback = getattr(event, "callback", None)
        if not done and getattr(callback, "__func__", None) is target:
            done.append(entry)
            entry = (event._kernel.now - 1e-3,) + entry[1:]
        heappush(heap, entry)

    return push


#: site -> (module whose ``heappush`` it uses, callback, fig 9 arm).
SITES = {
    "transmitter": (link_module, Interface._transmit_done, "adaptive"),
    "rx-ring": (link_module, Interface._deliver, "adaptive"),
    "cbr-emitter": (traffic_module, CbrTrafficSource._emit, "adaptive"),
    "cpu-slice": (cpu_module, CPU.reschedule, "reserves"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_a_handle_re_armed_into_the_past_stops_the_run(site, monkeypatch):
    from repro.scale.capacity_exp import all_arms, run_capacity_experiment
    module, target, arm_name = SITES[site]
    monkeypatch.setattr(module, "heappush", backdating(target))
    arm = next(a for a in all_arms() if a.name == arm_name)
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
