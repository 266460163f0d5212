"""Property tests: the kernel's pending set vs a sorted model.

The kernel's determinism contract (:mod:`repro.sim.kernel`) says events
dispatch in strictly increasing ``(time, seq)`` order, with same-time
ties resolved FIFO by the schedule counter — under *any* interleaving
of ``schedule`` / ``schedule_at`` / ``rearm`` / ``restart`` /
``cancel`` / ``step`` / bounded and unbounded ``run`` / ``stop``, from
outside the loop and from inside callbacks, with tombstone compaction
firing at any moment.
These tests drive random operation programs through a real
:class:`~repro.sim.Kernel` and through a trivially correct sorted-list
reference model, and require identical observable behaviour: the
dispatch log, the clock, ``pending()`` and ``peek()``, plus exact
tombstone bookkeeping inside the kernel after every step.

``COMPACT_MIN_SIZE`` is lowered to a handful of entries so compaction
fires constantly, also in the middle of ``run()`` (which holds the heap
list in a local: compaction has to mutate it in place).  Three cases
the inline dispatch loop makes delicate are pinned as plain tests
below the property, and so is each path a restarted (moved) handle
takes.  The model's ``restart`` is cancel, then schedule at that point.

Mutation-checked: each of these changes to ``kernel.py`` fails this
file — pushing ``(time, -seq, event)`` (LIFO ties), dropping the
``_stale`` decrement where ``run()`` (either loop) or ``peek()`` prunes
a front tombstone, compacting with ``self._heap = live`` instead of
``heap[:] = live``, drawing a moved entry's ``seq`` when it surfaces
instead of at ``restart``, deferring every restart (no earlier-deadline
fallback), and counting a moved entry as a tombstone.

Kernel-level facts pinned on top:

- :meth:`~repro.sim.Kernel.rearm` is dispatch-identical to scheduling
  a fresh event at the same point;
- a :class:`~repro.sim.PeriodicTicker` dispatches subscribers exactly
  like per-subscriber private timers would;
- :class:`~repro.sim.TickCoalescer` batches never fire early and never
  reorder registrations.
"""

from __future__ import annotations

import math
from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Kernel, PeriodicTicker, SimulationError, TickCoalescer

# ----------------------------------------------------------------------
# Random operation programs
# ----------------------------------------------------------------------
#: Delays from sub-microsecond to minutes, and exact ties (0.0).
DELAY = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=500.0),
)

INDEX = st.integers(min_value=0, max_value=200)

#: What an event does when it fires, besides logging itself.
ACTION = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), INDEX),
    st.tuples(st.just("schedule"), DELAY),
    st.tuples(st.just("rearm"), DELAY),
    st.tuples(st.just("restart"), INDEX, DELAY),
    st.tuples(st.just("stop")),
)

OP = st.one_of(
    st.tuples(st.just("schedule"), DELAY, ACTION),
    st.tuples(st.just("schedule_at"), DELAY, ACTION),
    st.tuples(st.just("rearm"), INDEX, DELAY, ACTION),
    st.tuples(st.just("cancel"), INDEX),
    st.tuples(st.just("restart"), INDEX, DELAY),
    st.tuples(st.just("step"), st.integers(min_value=1, max_value=8)),
    st.tuples(st.just("run_until"), DELAY),
    st.tuples(st.just("run")),
    st.tuples(st.just("peek")),
)

PROGRAM = st.lists(OP, max_size=120)

#: 0 and 3 compact all the time, 10**9 never does.
COMPACT_MIN = st.sampled_from((0, 3, 16, 10**9))


class _Handle:
    """Model-side stand-in for ScheduledEvent."""

    __slots__ = ("time", "seq", "cancelled", "ident", "action")

    def __init__(self, ident):
        self.ident = ident
        self.cancelled = False


class _SortedModel:
    """The obviously correct reference: one sorted list."""

    def __init__(self):
        self.entries = []

    def push(self, time, seq, handle):
        insort(self.entries, (time, seq, handle))

    def pop_due(self, limit):
        while self.entries:
            time, seq, handle = self.entries[0]
            if handle.cancelled:
                del self.entries[0]
                continue
            if limit is not None and time > limit:
                return None
            del self.entries[0]
            return handle
        return None

    def peek(self):
        for time, _, handle in self.entries:
            if not handle.cancelled:
                return time
        return None

    def live(self):
        return sum(1 for e in self.entries if not e[2].cancelled)


class _Side:
    """Interprets a program; subclasses supply the primitives.

    Handles are named by creation index, so the kernel side and the
    model side stay addressable by the same integers for as long as
    they behave alike.
    """

    def __init__(self):
        self.log = []    # (time, ident, seq) per dispatch
        self.idle = []   # fired and not queued again: may be rearmed
        self.armed = []  # queued and not cancelled: may be restarted
        self.created = 0

    def arm_new(self, delay, action, absolute=False):
        self.armed.append(self.created)
        self.new(delay, action, absolute)

    def arm_again(self, ident, delay, action):
        self.armed.append(ident)
        self.rearm(ident, delay, action)

    def disarm(self, ident):
        if ident in self.armed:
            self.armed.remove(ident)
        self.cancel(ident)

    def move(self, index, delay):
        if self.armed:
            self.restart(self.armed[index % len(self.armed)], delay)

    def apply(self, op):
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            self.arm_new(op[1], op[2], absolute=kind == "schedule_at")
        elif kind == "rearm":
            if self.idle:
                ident = self.idle.pop(op[1] % len(self.idle))
                self.arm_again(ident, op[2], op[3])
        elif kind == "cancel":
            if self.created:
                self.disarm(op[1] % self.created)
        elif kind == "restart":
            self.move(op[1], op[2])
        elif kind == "step":
            for _ in range(op[1]):
                if not self.step():
                    break
        elif kind == "run_until":
            self.run(self.now() + op[1])
        elif kind == "run":
            self.run(None)
        else:
            self.peek()

    def fire(self, ident, action):
        self.log.append((self.now(), ident, self.seq_of(ident)))
        self.armed.remove(ident)
        self.idle.append(ident)
        if action is None:
            return
        if action[0] == "cancel":
            self.disarm(action[1] % self.created)
        elif action[0] == "schedule":
            self.arm_new(action[1], None)
        elif action[0] == "rearm":
            self.idle.remove(ident)
            self.arm_again(ident, action[1], None)
        elif action[0] == "restart":
            self.move(action[1], action[2])
        else:
            self.stop()

    def observe(self):
        return self.now(), self.pending(), self.log


class _CountingTracer:
    """Just enough tracer to send run() and step() down the traced path;
    keeps the ``seq`` of the latest dispatch.  Its dispatch row has a
    handler, so the kernel builds every dispatch record; any other
    record (a ``clock.regress``: the clock ran backwards) fails."""

    def __init__(self):
        self.dispatches = 0
        self.seq = None
        self._row = [0, (self.instant,)]

    def row(self, layer, kind):
        assert (layer, kind) == ("sim", "event.dispatch")
        return self._row

    def instant(self, layer, kind, fields=None):
        assert (layer, kind) == ("sim", "event.dispatch")
        self.dispatches += 1
        self.seq = fields["seq"]


class _KernelSide(_Side):
    def __init__(self, compact_min, traced):
        super().__init__()
        self.kernel = Kernel()
        self.kernel.COMPACT_MIN_SIZE = compact_min
        if traced:
            self.kernel.tracer = _CountingTracer()
        self.heap = self.kernel._heap
        self.handles = []
        #: Per handle, the seq its latest arming drew (handles carry no
        #: copy of their own).
        self.seqs = []

    def new(self, delay, action, absolute):
        kernel = self.kernel
        ident = self.created
        self.created += 1
        if absolute:
            handle = kernel.schedule_at(kernel.now + delay, self.fire,
                                        ident, action)
        else:
            handle = kernel.schedule(delay, self.fire, ident, action)
        self.handles.append(handle)
        self.seqs.append(kernel._seq - 1)

    def rearm(self, ident, delay, action):
        self.kernel.rearm(self.handles[ident], delay, ident, action)
        self.seqs[ident] = self.kernel._seq - 1

    def cancel(self, ident):
        self.handles[ident].cancel()

    def restart(self, ident, delay):
        handle = self.handles[ident]
        self.handles[ident] = self.kernel.restart(handle, delay,
                                                  *handle.args)
        self.seqs[ident] = self.kernel._seq - 1

    def seq_of(self, ident):
        seq = self.seqs[ident]
        tracer = self.kernel.tracer
        if tracer is not None:
            assert tracer.seq == seq, "dispatched another arming's seq"
        return seq

    def step(self):
        return self.kernel.step()

    def run(self, until):
        self.kernel.run(until)

    def stop(self):
        self.kernel.stop()

    def now(self):
        return self.kernel.now

    def pending(self):
        return self.kernel.pending()

    def peek(self):
        return self.kernel.peek()

    def check_books(self):
        """The kernel's own bookkeeping is exact, not just plausible."""
        kernel, heap = self.kernel, self.kernel._heap
        assert heap is self.heap, "the heap list was rebound"
        assert all(heap[(i - 1) >> 1] <= heap[i] for i in range(1, len(heap)))
        assert kernel._stale == sum(e[2].cancelled for e in heap)
        assert kernel.heap_size() == len(heap)
        assert kernel.pending() == len(heap) - kernel._stale
        queued = {id(e[2]) for e in heap}
        assert len(queued) == len(heap), "a handle is queued twice"
        for handle in self.handles:
            assert (handle._kernel is kernel) == (id(handle) in queued)
        for time, seq, handle in heap:
            moved = handle._skip
            if moved is True:
                continue
            if moved:
                # A moved entry sits at or before its new key.
                assert (time, seq) < moved
                time = moved[0]
            assert handle._due == time


class _ModelSide(_Side):
    def __init__(self):
        super().__init__()
        self.model = _SortedModel()
        self.handles = []
        self.time = 0.0
        self.seq = 0
        self.stopped = False

    def _push(self, handle, delay, action):
        handle.time = self.time + delay
        handle.seq = self.seq
        handle.action = action
        handle.cancelled = False
        self.seq += 1
        self.model.push(handle.time, handle.seq, handle)

    def new(self, delay, action, absolute):
        handle = _Handle(self.created)
        self.created += 1
        self.handles.append(handle)
        self._push(handle, delay, action)

    def rearm(self, ident, delay, action):
        self._push(self.handles[ident], delay, action)

    def cancel(self, ident):
        self.handles[ident].cancelled = True

    def restart(self, ident, delay):
        old = self.handles[ident]
        old.cancelled = True
        fresh = self.handles[ident] = _Handle(ident)
        self._push(fresh, delay, old.action)

    def seq_of(self, ident):
        return self.handles[ident].seq

    def _dispatch(self, handle):
        self.time = handle.time
        self.fire(handle.ident, handle.action)

    def step(self):
        handle = self.model.pop_due(None)
        if handle is None:
            return False
        self._dispatch(handle)
        return True

    def run(self, until):
        self.stopped = False
        while not self.stopped:
            handle = self.model.pop_due(until)
            if handle is None:
                break
            self._dispatch(handle)
        if until is not None and not self.stopped and until > self.time:
            self.time = until

    def stop(self):
        self.stopped = True

    def now(self):
        return self.time

    def pending(self):
        return self.model.live()

    def peek(self):
        return self.model.peek()


def _run_program(program, compact_min, traced):
    """Execute ``program`` on a kernel and on the model in lockstep."""
    real, model = _KernelSide(compact_min, traced), _ModelSide()
    def both(op):
        real.apply(op)
        model.apply(op)
        assert real.observe() == model.observe(), op
        real.check_books()

    for op in program:
        both(op)
        if op[0] == "peek":
            assert real.peek() == model.peek()
    while model.pending():  # a stop() action ends a run() early
        both(("run",))
    both(("run",))  # nothing left to stop this one: tombstones go too
    assert real.kernel.pending() == 0
    assert real.kernel.heap_size() == 0
    assert real.kernel.events_executed == len(real.log)
    if traced:
        assert real.kernel.tracer.dispatches == len(real.log)


@settings(max_examples=400, deadline=None)
@given(program=PROGRAM, compact_min=COMPACT_MIN, traced=st.booleans())
def test_kernel_matches_sorted_model(program, compact_min, traced):
    _run_program(program, compact_min, traced)


# ----------------------------------------------------------------------
# Three cases the inline dispatch loop makes delicate
# ----------------------------------------------------------------------
def test_compaction_inside_a_callback_during_run():
    """cancel() in a callback compacts the list run() is iterating."""
    kernel = Kernel()
    kernel.COMPACT_MIN_SIZE = 4
    fired = []
    victims = [kernel.schedule(5.0 + i, fired.append, f"victim{i}")
               for i in range(5)]

    def massacre():
        fired.append("massacre")
        for victim in victims:
            victim.cancel()
        # The last cancel compacted, mid-run: only the live entries
        # are left, and what is pushed from here on must land in the
        # list run() is looking at.
        assert kernel.compactions == 1
        assert kernel.heap_size() == kernel.pending() == 3
        kernel.schedule(0.0, fired.append, "tie")
        kernel.schedule(1.5, fired.append, "later")

    kernel.schedule(1.0, massacre)
    kernel.schedule(1.0, fired.append, "b")
    kernel.schedule(20.0, fired.append, "z")
    kernel.schedule(3.0, fired.append, "c")
    kernel.run()
    assert fired == ["massacre", "b", "tie", "later", "c", "z"]
    assert kernel.pending() == kernel.heap_size() == 0
    assert kernel._stale == 0
    assert kernel.events_executed == 6


def test_first_not_due_event_stays_pending_and_cancellable():
    """run(until) leaves the first later event queued, link intact."""
    kernel = Kernel()
    fired = []
    kernel.schedule(1.0, fired.append, "due")
    beyond = kernel.schedule(3.0, fired.append, "beyond")
    kernel.schedule(4.0, fired.append, "last")
    kernel.run(until=2.0)
    assert fired == ["due"]
    assert kernel.now == 2.0
    assert kernel.pending() == 2
    assert kernel.peek() == 3.0
    beyond.cancel()
    assert kernel.pending() == 1, "the cancel was not counted"
    assert kernel.heap_size() == 2
    kernel.run()
    assert fired == ["due", "last"]
    assert kernel.pending() == kernel.heap_size() == 0
    assert kernel._stale == 0


def test_front_tombstone_beyond_until_is_pruned():
    """A cancelled front entry goes, whatever its time; _stale exact."""
    kernel = Kernel()
    fired = []
    front = kernel.schedule(3.0, fired.append, "front")
    kernel.schedule(4.0, fired.append, "live")
    front.cancel()
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (1, 2, 1)
    kernel.run(until=2.0)
    assert fired == []
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (1, 1, 0)
    assert front._kernel is None
    kernel.run()
    assert fired == ["live"]


# ----------------------------------------------------------------------
# A restarted (moved) handle
# ----------------------------------------------------------------------
def _logging_kernel():
    kernel = Kernel()
    kernel.tracer = tracer = _CountingTracer()
    fired = []

    def log(name):
        fired.append((name, kernel.now, tracer.seq))

    return kernel, fired, log


def test_restart_to_an_earlier_deadline_fires_there():
    """An earlier deadline cannot wait for the old key: tombstone + push."""
    kernel, fired, log = _logging_kernel()
    timer = kernel.schedule(5.0, log, "timer")       # seq 0
    kernel.schedule(2.0, log, "b")                   # seq 1
    moved = kernel.restart(timer, 1.0, "timer")      # seq 2
    assert moved is not timer and timer.cancelled
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (2, 3, 1)
    kernel.run()
    assert fired == [("timer", 1.0, 2), ("b", 2.0, 1)]
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (0, 0, 0)
    assert kernel.events_executed == 2


def test_restart_later_keeps_the_handle_and_its_seq_is_drawn_at_the_call():
    kernel, fired, log = _logging_kernel()
    timer = kernel.schedule(1.0, log, "timer")       # seq 0
    assert kernel.restart(timer, 3.0, "timer") is timer   # seq 1
    kernel.schedule(3.0, log, "tie")                 # seq 2: after timer
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (2, 2, 0)
    kernel.run()
    assert fired == [("timer", 3.0, 1), ("tie", 3.0, 2)]
    assert kernel.events_executed == 2


def test_cancel_of_a_moved_handle_counts_one_tombstone():
    kernel, fired, log = _logging_kernel()
    timer = kernel.schedule(1.0, log, "timer")
    kernel.schedule(2.0, log, "b")
    kernel.restart(timer, 3.0, "timer")
    timer.cancel()
    timer.cancel()
    assert timer.cancelled
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (1, 2, 1)
    kernel.run()
    assert fired == [("b", 2.0, 1)]
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (0, 0, 0)

    # Cancelled after its old key surfaced and it was re-keyed.
    timer = kernel.schedule(1.0, log, "timer")
    kernel.restart(timer, 3.0, "timer")
    kernel.run(until=kernel.now + 2.0)
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (1, 1, 0)
    timer.cancel()
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (0, 1, 1)
    kernel.run()
    assert len(fired) == 1
    assert (kernel.pending(), kernel.heap_size(), kernel._stale) == (0, 0, 0)


def test_restart_needs_a_pending_handle():
    kernel, fired, log = _logging_kernel()
    fired_handle = kernel.schedule(1.0, log, "fired")
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.restart(fired_handle, 1.0)
    cancelled = kernel.schedule(1.0, log, "cancelled")
    cancelled.cancel()
    with pytest.raises(SimulationError):
        kernel.restart(cancelled, 1.0)
    moved = kernel.schedule(1.0, log, "moved")
    kernel.restart(moved, 2.0, "moved")
    moved.cancel()
    with pytest.raises(SimulationError):
        kernel.restart(moved, 3.0)
    live = kernel.schedule(1.0, log, "live")
    with pytest.raises(SimulationError):
        Kernel().restart(live, 1.0)
    with pytest.raises(SimulationError):
        kernel.restart(live, -1.0)
    seq = kernel._seq
    kernel.run()
    assert kernel._seq == seq, "a refused restart drew a seq"
    assert fired == [("fired", 1.0, 0), ("live", 2.0, 4)]


def test_moved_entry_surfacing_beyond_the_horizon():
    """peek(), step() and run(until) re-key a moved front entry, hand
    on to the next live one and never count the re-key as an event."""
    def world():
        kernel, fired, log = _logging_kernel()
        timer = kernel.schedule(1.0, log, "timer")   # seq 0
        kernel.schedule(2.0, log, "b")               # seq 1
        kernel.restart(timer, 4.0, "timer")          # seq 2
        return kernel, fired, timer

    kernel, fired, timer = world()
    assert kernel.peek() == 2.0
    assert timer._skip is False
    assert kernel.heap_size() == kernel.pending() == 2
    assert sorted(entry[:2] for entry in kernel._heap) == [(2.0, 1),
                                                          (4.0, 2)]

    kernel, fired, timer = world()
    assert kernel.step()
    assert fired == [("b", 2.0, 1)]
    assert (kernel.now, kernel.events_executed) == (2.0, 1)
    assert [entry[:2] for entry in kernel._heap] == [(4.0, 2)]

    kernel, fired, timer = world()
    kernel.run(until=1.5)
    assert fired == []
    assert (kernel.now, kernel.events_executed) == (1.5, 0)
    assert kernel.heap_size() == kernel.pending() == 2
    kernel.run(until=3.0)
    assert fired == [("b", 2.0, 1)]
    kernel.run()
    assert fired == [("b", 2.0, 1), ("timer", 4.0, 2)]
    assert kernel.events_executed == 2

    # The old key itself lies beyond the horizon: re-keyed all the same,
    # and the first live entry beyond it stays pending.
    kernel, fired, log = _logging_kernel()
    timer = kernel.schedule(5.0, log, "timer")       # seq 0
    kernel.restart(timer, 6.0, "timer")              # seq 1
    kernel.run(until=3.0)
    assert (kernel.now, kernel.events_executed, fired) == (3.0, 0, [])
    assert [entry[:2] for entry in kernel._heap] == [(6.0, 1)]
    kernel.run()
    assert fired == [("timer", 6.0, 1)]


def test_compaction_rekeys_a_moved_entry():
    kernel, fired, log = _logging_kernel()
    kernel.COMPACT_MIN_SIZE = 2
    timer = kernel.schedule(1.0, log, "timer")       # seq 0
    kernel.restart(timer, 5.0, "timer")              # seq 1
    victims = [kernel.schedule(2.0 + i, log, "victim") for i in range(3)]
    for victim in victims:
        victim.cancel()
    assert kernel.compactions == 1
    assert kernel._heap == [(5.0, 1, timer)]
    assert timer._skip is False
    assert (kernel.pending(), kernel._stale) == (1, 0)
    kernel.run()
    assert fired == [("timer", 5.0, 1)]


# ----------------------------------------------------------------------
# Kernel-level determinism facts
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    period=st.floats(min_value=1e-4, max_value=0.5),
    cycles=st.integers(min_value=1, max_value=20),
)
def test_rearm_equivalent_to_fresh_schedule(period, cycles):
    """rearm() produces the same dispatch sequence as fresh schedule()."""

    def run(use_rearm):
        kernel = Kernel()
        kernel.tracer = tracer = _CountingTracer()
        fired = []

        class Periodic:
            def __init__(self):
                self.left = cycles
                self.event = kernel.schedule(period, self.fire)

            def fire(self):
                fired.append((round(kernel.now, 12), tracer.seq))
                self.left -= 1
                if self.left > 0:
                    if use_rearm:
                        kernel.rearm(self.event, period)
                    else:
                        self.event = kernel.schedule(period, self.fire)

        Periodic()
        kernel.run()
        return fired, kernel.events_executed

    assert run(True) == run(False)


@settings(max_examples=50, deadline=None)
@given(
    interval=st.floats(min_value=1e-3, max_value=0.1),
    subscribers=st.integers(min_value=1, max_value=8),
    ticks=st.integers(min_value=1, max_value=10),
)
def test_ticker_matches_private_timers(interval, subscribers, ticks):
    """One coalesced ticker == N private periodic timers, in order."""
    horizon = interval * (ticks - 1) + interval / 2

    kernel = Kernel()
    ticker = PeriodicTicker(kernel, interval)
    coalesced = []
    for i in range(subscribers):
        ticker.subscribe(
            lambda now, i=i: coalesced.append((round(now, 12), i)))
    ticker.start()
    kernel.run(until=horizon)
    ticker.stop()

    kernel = Kernel()
    private = []

    def tick(i):
        private.append((round(kernel.now, 12), i))

    def fan_out():
        for i in range(subscribers):
            tick(i)
        kernel.schedule(interval, fan_out)

    kernel.schedule(0.0, fan_out)
    kernel.run(until=horizon)
    assert coalesced == private


@settings(max_examples=100, deadline=None)
@given(
    quantum=st.floats(min_value=1e-4, max_value=0.5),
    requests=st.lists(st.floats(min_value=0.0, max_value=2.0),
                      min_size=1, max_size=30),
)
def test_coalescer_never_early_never_reordered(quantum, requests):
    """Coalesced wakeups: never before the request, FIFO within a tick."""
    kernel = Kernel()
    grid = TickCoalescer(kernel, quantum)
    fired = []
    for i, delay in enumerate(requests):
        grid.call_after(delay, lambda i=i, want=delay: fired.append(
            (kernel.now, i, want)))
    kernel.run()
    assert len(fired) == len(requests)
    per_tick = {}
    for at, i, want in fired:
        assert at >= want - 1e-12, (
            f"wakeup {i} fired at {at}, before its request {want}")
        assert at - want <= quantum + 1e-9, (
            f"wakeup {i} delayed {at - want}, beyond one quantum")
        per_tick.setdefault(at, []).append(i)
    for at, indices in per_tick.items():
        assert indices == sorted(indices), (
            f"tick {at} ran registrations out of order: {indices}")


@settings(max_examples=500, deadline=None)
@given(
    quantum=st.one_of(st.sampled_from([0.1, 0.05, 0.01, 1e-3, 1 / 3]),
                      st.floats(min_value=1e-4, max_value=0.5)),
    k=st.integers(min_value=0, max_value=10 ** 6),
    nudge=st.sampled_from([-1, 0, 1]),
    time=st.none() | st.floats(min_value=0.0, max_value=1e4),
)
def test_coalescer_quantize_is_idempotent(quantum, k, nudge, time):
    """A tick is the smallest grid product ``>= time``: quantizing it
    again leaves it put, it is never early, and it is less than one
    quantum (plus one ulp of rounding) late.  With ``quantum=0.1``,
    ``quantize(0.25)`` is ``0.30000000000000004``, which a plain
    ``ceil(t / q) * q`` moves on to ``0.4``.  Times one ulp either side
    of a grid product reach both of the rounding corrections."""
    if time is None:
        time = max(0.0, math.nextafter(k * quantum, nudge * math.inf)
                   if nudge else k * quantum)
    grid = TickCoalescer(Kernel(), quantum)
    tick = grid.quantize(time)
    assert grid.quantize(tick) == tick
    assert tick >= time
    assert tick - time < quantum + math.ulp(tick)


def test_coalescer_quantize_keeps_a_rounded_grid_point():
    grid = TickCoalescer(Kernel(), 0.1)
    assert grid.quantize(0.25) == 3 * 0.1
    assert grid.quantize(3 * 0.1) == 3 * 0.1
