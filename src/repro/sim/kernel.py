"""The discrete-event simulation kernel.

A :class:`Kernel` owns a simulated clock and the set of pending events.
Each event is a plain callback scheduled for a future simulated time.
Higher layers (processes, CPU schedulers, network queues) are all built
from these two primitives.

The pending set
---------------

One ``heapq`` list of ``(time, seq, event)`` tuples, owned by the
kernel and pushed / popped inline: the figures keep a median of 4-180
entries pending per arm (maximum 2 004), sizes at which a C binary heap
beats the calendar queue it replaced (DESIGN §8 has the measurements).
``seq`` is unique, so tuple comparisons are decided in C on the first
two fields and never reach the event object.  Cancelled entries stay in
place as tombstones, are skipped when they surface, and are compacted
away when they outnumber the live entries; a restarted handle's entry
is re-keyed instead ("Restarting a pending timer" below).

Determinism
-----------

Two events scheduled for the same simulated time fire in the order they
were scheduled (FIFO tie-break via a monotonically increasing sequence
number).  :meth:`Kernel.rearm` re-schedules a fired event handle with a
*fresh* sequence number, so reusing an event object is
indistinguishable from scheduling a new one.  Combined with the seeded
random streams in :mod:`repro.sim.rng`, an entire experiment is
reproducible bit-for-bit from its seed.

Re-arming in place
------------------

Four hot handles re-arm *in place*: the packet path's three (an
interface's transmitter, its wire-delivery ring, a CBR source's
emitter), which fire about a million times per figure, and a CPU's
slice-end handle, which ends every slice that is not preempted (about
40 000 per pass of the fig 9 capacity farm).  A ``rearm()`` call frame
per firing, or a fresh handle per slice, is a measurable share of the
run.  In place is exactly what ``rearm()`` does, minus the frame and
the checks:

- **Entry format.**  Push ``(time, seq, event)`` onto ``kernel._heap``
  with ``heapq.heappush``, where ``time = kernel.now + delay``
  (``delay >= 0``) and ``event`` is the handle itself; set
  ``event.args`` to the callback's argument tuple (a handle whose
  arguments never change keeps them) and ``event._kernel`` to the
  kernel.  The handle keeps its ``callback``.  A negative delay is
  caught only on a traced run, whose dispatch loop reports the clock
  moving back (``clock.regress``, :meth:`Kernel.run`).
- **Seq rule.**  Draw ``seq = kernel._seq`` and store ``seq + 1`` back,
  once per push, at the exact point where a ``schedule()`` or
  ``rearm()`` call would have drawn it; so the dispatch order is that
  of a fresh event there.
- **Precondition: the handle has fired.**  It was popped (its
  ``_kernel`` is ``None``) and is not cancelled.  Pushing a handle that
  is still queued puts it in the heap twice.  The caller must know this
  from its own state (an idle transmitter, the oldest delivery in FIFO
  order, the emitter that is firing now, a slice handle that ended
  its slice; a CPU drops the handle it cancels at a preemption and
  schedules a fresh one); nothing checks it.

Everything else goes through :meth:`Kernel.rearm` or
:meth:`Kernel.schedule`, which do check.  The kernel alone writes
:attr:`Kernel.now`.  A handle carries no copy of its heap entry's key:
the ``(time, seq)`` pair lives only in the entry.  The one time a
handle does hold, its deadline ``_due`` for :meth:`Kernel.restart`,
is written by the kernel's methods and not by an in-place push, so it
is stale on a hot handle; a handle that is re-armed in place is never
restarted.

Restarting a pending timer
--------------------------

A stream's retransmission timer is pushed back on nearly every
acknowledgement (RFC 6298 §5.3).  Cancelling it and scheduling a fresh
one leaves one tombstone per ACK; :meth:`Kernel.restart` moves the
pending handle instead, in the dispatch order of cancel + schedule:

- **Seq rule.**  ``restart`` draws the new key's ``seq`` at the call,
  exactly where ``schedule()`` after ``cancel()`` would draw it, and
  never again for that key.
- **Deferred re-key.**  The entry stays in the heap at its old key
  ``(T0, s0)``, and the handle's ``_skip`` holds the new key
  ``(T1, s1)``.  Only when the old key surfaces (``run()``'s skip
  branch, ``peek()``), or when the heap is compacted, is the entry
  pushed again at ``(T1, s1)``.  Since ``T0 <= T1``, nothing keyed
  after ``(T1, s1)`` can pop before it, and nothing keyed before it is
  held back.  A moved entry is one live event: it is not a tombstone
  (``_stale``, :meth:`Kernel.pending`), and its re-key is not an
  executed event.
- **Earlier-deadline fallback.**  Deferring is sound only if the new
  deadline is not earlier than the handle's deadline ``_due``.  A
  restart to an earlier one tombstones the handle and pushes a fresh
  handle at the new key, so ``restart`` returns the handle that will
  fire and the caller keeps that one.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from itertools import count
from math import inf
from typing import Any, Callable, Dict, List, Optional, Tuple, Union


class SimulationError(RuntimeError):
    """Raised for invalid kernel operations (e.g. scheduling in the past)."""


def _callback_name(callback: Callable[..., None]) -> str:
    """What a trace record calls a dispatched callback."""
    try:
        return callback.__qualname__
    except AttributeError:
        return type(callback).__name__


class ScheduledEvent:
    """Handle for a scheduled callback; supports O(1) cancellation.

    Cancellation is implemented by tombstoning: the heap entry stays in
    place but is skipped when popped, so ``cancel`` is O(1).  A CPU
    preemption cancels the preempted slice's pending handle (about
    36 000 times in a pass of the fig 9 capacity farm); a slice that
    runs out instead fires, and its handle is re-armed in place.  The
    kernel counts live tombstones and compacts the heap when they
    dominate it, so cancel/reschedule churn cannot grow the pending set
    unboundedly.

    A handle moved by :meth:`Kernel.restart` is skipped the same way,
    but its entry is pushed again at the new key instead of dropped.
    """

    __slots__ = ("callback", "args", "_skip", "_due", "_kernel")

    def __init__(self, callback: Callable[..., None], args: tuple,
                 due: float) -> None:
        self.callback = callback
        self.args = args
        #: Truthy when the heap entry holding this handle must not be
        #: dispatched as it surfaces: ``True`` once cancelled, or the
        #: ``(time, seq)`` key :meth:`Kernel.restart` moved it to.
        self._skip: Union[bool, Tuple[float, int]] = False
        #: The time the handle fires at, as the kernel's methods last
        #: set it (an in-place push does not).
        self._due = due
        #: Owning kernel while the event sits in the heap; cleared on
        #: pop so a late cancel() cannot skew the tombstone count.
        self._kernel: Optional["Kernel"] = None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called since the handle was armed."""
        return self._skip is True

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._skip is True:
            return
        self._skip = True
        kernel = self._kernel
        if kernel is not None:
            kernel._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._skip is True:
            state = "cancelled"
        elif self._kernel is None:
            state = "idle"
        else:
            state = "moved" if self._skip else "pending"
        callback = getattr(self.callback, "__qualname__", self.callback)
        return f"<ScheduledEvent {callback} {state}>"


class Kernel:
    """A deterministic discrete-event simulation loop.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock.

    Example
    -------
    >>> k = Kernel()
    >>> fired = []
    >>> _ = k.schedule(2.0, fired.append, "b")
    >>> _ = k.schedule(1.0, fired.append, "a")
    >>> k.run()
    >>> fired
    ['a', 'b']
    >>> k.now
    2.0
    """

    #: Compaction threshold: never compact below this size (the
    #: rebuild is not worth it), and above it only when tombstones make
    #: up more than half of the pending set.
    COMPACT_MIN_SIZE = 512

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time in seconds.  A plain attribute, read
        #: hundreds of thousands of times per figure; only the kernel
        #: writes it.
        self.now = float(start_time)
        #: The pending set: a ``heapq`` of ``(time, seq, event)``.  The
        #: list object is never rebound (``run()`` holds it in a local).
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        #: Cancelled entries still occupying heap slots (tombstones).
        self._stale = 0
        self._seq = 0
        self._running = False
        self._stopped = False
        #: Number of events executed so far (observability / tests).
        self.events_executed = 0
        #: Queue compactions performed (observability / tests).
        self.compactions = 0
        #: Attached :class:`repro.obs.trace.Tracer`, or ``None`` (the
        #: default: tracing off, zero overhead beyond this None check).
        self.tracer = None
        #: The clock where the last traced ``run()`` left its dispatch
        #: loop, before any advance to ``until`` (``-inf`` before one):
        #: what the teardown time law holds the final clock to.
        self.traced_clock = -inf
        #: Entity kind -> this kernel's id source (see :meth:`ids`).
        self._ids: Dict[str, Callable[[], int]] = {}

    def ids(self, kind: str) -> Callable[[], int]:
        """This kernel's id source for ``kind``, counting from 1; bind it
        once per constructing object (DESIGN §8, "Ids")."""
        return self._ids.setdefault(kind, count(1).__next__)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(callback, args, time)
        event._kernel = self
        heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(callback, args, time)
        event._kernel = self
        heappush(self._heap, (time, seq, event))
        return event

    def rearm(self, event: ScheduledEvent, delay: float,
              *args: Any) -> ScheduledEvent:
        """Re-schedule a *fired* event handle ``delay`` seconds from now.

        Allocation-free re-arming for tight periodic loops (traffic
        sources, link transmitters, coalesced tickers): the handle is
        reused, but it receives a fresh sequence number at the call
        site, so the resulting dispatch order is bit-identical to
        ``schedule()``-ing a brand-new event here.  ``event.args`` is
        replaced by ``*args`` (pass none for a no-arg callback).

        The handle must not be pending (still queued) — rearming it
        would corrupt the heap — and a cancelled-then-fired handle is
        revived (its ``cancelled`` flag clears).
        """
        if event._kernel is not None:
            raise SimulationError(
                "cannot rearm an event that is still pending"
            )
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event.args = args
        event._skip = False
        event._due = time
        event._kernel = self
        heappush(self._heap, (time, seq, event))
        return event

    def restart(self, event: ScheduledEvent, delay: float,
                *args: Any) -> ScheduledEvent:
        """Move a *pending* event handle to ``delay`` seconds from now.

        Dispatch-identical to ``event.cancel()`` followed by
        ``schedule(delay, event.callback, *args)`` here: the new key's
        sequence number is drawn at this call.  Returns the handle that
        will fire; keep it in place of ``event``.

        Unless the new deadline is earlier than the handle's, the handle
        stays in the heap at its old key and is returned; its new key is
        pushed when the old one surfaces.  An earlier deadline tombstones
        ``event`` and pushes a fresh handle at the new key.
        ``event.args`` is replaced by ``*args`` (pass none for a no-arg
        callback).
        """
        if event._kernel is not self or event._skip is True:
            raise SimulationError("can only restart a pending event")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        if time >= event._due:
            event._skip = (time, seq)
            event._due = time
            event.args = args
            return event
        event.cancel()
        fresh = ScheduledEvent(event.callback, args, time)
        fresh._kernel = self
        heappush(self._heap, (time, seq, fresh))
        return fresh

    def _clock_regress(self, time: float, seq: int,
                       callback: Callable[..., None],
                       previous: Optional[Callable[..., None]]) -> None:
        """Report an entry due at ``time`` < ``now`` as a ``sim``
        ``clock.regress`` record, stamped before the clock moves back:
        the time law's one input (``TimeMonotonicityChecker``).
        ``previous`` is the callback the loop dispatched last, if any."""
        self.tracer.instant("sim", "clock.regress", fields={
            "callback": _callback_name(callback), "seq": seq, "due": time,
            "after": None if previous is None else _callback_name(previous)})

    def _note_cancel(self) -> None:
        """Tombstone accounting + compaction policy (from ``cancel()``)."""
        heap = self._heap
        self._stale += 1
        # Tombstones are only ever created here, so this is the one
        # place that needs to police the tombstone/live ratio.
        if (len(heap) > self.COMPACT_MIN_SIZE
                and self._stale * 2 > len(heap)):
            live = []
            for entry in heap:
                event = entry[2]
                key = event._skip
                if not key:
                    live.append(entry)
                elif key is True:
                    event._kernel = None
                else:
                    # Moved: re-keyed here rather than when it surfaces.
                    event._skip = False
                    live.append(key + (event,))
            # In place: run() holds this list in a local.  Pop order
            # lives in the (time, seq) keys, so re-heapifying cannot
            # change it.
            heap[:] = live
            heapify(heap)
            self._stale = 0
            self.compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if none is pending.
        Traced, it checks the time law and builds or counts the dispatch
        record as :meth:`run`'s traced loop does.
        """
        if self.peek() is None:
            return False
        time, seq, event = heappop(self._heap)
        event._kernel = None
        callback = event.callback
        tracer = self.tracer
        if tracer is not None and time < self.now:
            self._clock_regress(time, seq, callback, None)
        self.now = time
        self.events_executed += 1
        if tracer is not None:
            dispatch = tracer.row("sim", "event.dispatch")
            if dispatch[1]:
                tracer.instant("sim", "event.dispatch", fields={
                    "callback": _callback_name(callback), "seq": seq})
            else:
                dispatch[0] += 1
        callback(*event.args)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the pending set drains or the clock reaches ``until``.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` even if the last event fires earlier, so that metrics
        windows line up with the requested horizon.  Tombstones at the
        front are pruned and moved entries re-keyed whatever their time;
        the first *live* entry beyond ``until`` stays pending.

        Each pass pops first and looks second: one pop per dispatched
        event, and the one live entry found beyond ``until`` is pushed
        back.  ``(time, seq)`` keys are unique, so pushing it back cannot
        change the order anything pops in.

        This is the simulation's hottest loop (hundreds of thousands of
        dispatches per experiment), so the heap is held in a local, the
        pop and the dispatch from :meth:`step` are inlined, and
        ``events_executed`` is batched in a local.  The tracer is
        sampled once when ``run()`` begins: attach tracers before
        running (every call site does; per-event re-checks would tax
        the untraced hot path that the figures depend on).

        The traced loop is where the time law is checked, since the
        kernel alone writes the clock: each entry's time is compared
        with ``now`` before the clock moves, and one that would move it
        back is reported as a ``sim`` ``clock.regress`` record.  It
        builds the ``sim`` ``event.dispatch`` record only when the
        tracer's row for it has a handler (a plain sink admitting
        ``sim``, or a checker that declared the kind); otherwise it
        only counts the dispatch in that row.  It leaves
        :attr:`traced_clock` at the clock its loop ended on.
        """
        if self._running:
            raise SimulationError("kernel is already running (reentrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        limit = inf if until is None else until
        tracer = self.tracer
        executed = 0
        try:
            if tracer is None:
                while heap and not self._stopped:
                    time, seq, event = heappop(heap)
                    if event._skip:
                        key = event._skip
                        if key is True:
                            event._kernel = None
                            self._stale -= 1
                        else:
                            event._skip = False
                            heappush(heap, key + (event,))
                        continue
                    if time > limit:
                        heappush(heap, (time, seq, event))
                        break
                    event._kernel = None
                    self.now = time
                    executed += 1
                    event.callback(*event.args)
            else:
                # The live row: its handlers are rewritten in place when
                # a sink comes or goes, so this one read per run() sees
                # a sink added by an event.
                dispatch = tracer.row("sim", "event.dispatch")
                callback = None
                while heap and not self._stopped:
                    time, seq, event = heappop(heap)
                    if event._skip:
                        key = event._skip
                        if key is True:
                            event._kernel = None
                            self._stale -= 1
                        else:
                            event._skip = False
                            heappush(heap, key + (event,))
                        continue
                    if time > limit:
                        heappush(heap, (time, seq, event))
                        break
                    event._kernel = None
                    if time < self.now:
                        self._clock_regress(time, seq, event.callback,
                                            callback)
                    self.now = time
                    executed += 1
                    callback = event.callback
                    if dispatch[1]:
                        tracer.instant("sim", "event.dispatch", fields={
                            "callback": _callback_name(callback),
                            "seq": seq})
                    else:
                        dispatch[0] += 1
                    callback(*event.args)
                self.traced_clock = self.now
            if until is not None and not self._stopped and until > self.now:
                self.now = until
        finally:
            self.events_executed += executed
            self._running = False

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if idle.

        Front tombstones are pruned on the way, and a moved entry at the
        front is re-keyed.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            key = event._skip
            if not key:
                return entry[0]
            if key is True:
                heappop(heap)
                event._kernel = None
                self._stale -= 1
            else:
                event._skip = False
                heapreplace(heap, key + (event,))
        return None

    def pending(self) -> int:
        """O(1) count of live (non-cancelled) events still pending.

        A moved handle is one live event.
        """
        return len(self._heap) - self._stale

    def heap_size(self) -> int:
        """Heap entries including tombstones (observability / tests)."""
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel now={self.now:.6f} pending={self.pending()}>"
