"""Preemptive fixed-priority CPU scheduling.

The CPU model is exact: at every scheduling point (work submission,
completion, priority change, reserve depletion or replenishment) the
running thread is charged for precisely the simulated time it held the
CPU, and the highest effective-priority runnable thread is (re)selected.
Preemption is therefore instantaneous, like an ideal RTOS: the model
has zero context-switch cost, and no option adds one.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.sim.process import Signal
from repro.oskernel.thread import (DEAD, IDLE, READY, RUNNING, SUSPENDED,
                                   SimThread)

# Work below one simulated nanosecond is considered complete.  The
# epsilon must be coarse enough that ``now + slice`` is always a
# representable later float, or zero-length slices would loop forever at
# one timestamp (classic DES pathology).
_EPSILON = 1e-9


class WorkRequest:
    """A quantum of CPU demand charged to one thread.

    Completion is announced through :attr:`done`, a
    :class:`~repro.sim.process.Signal` that fires with the request
    itself as payload.
    """

    __slots__ = (
        "rid",
        "thread",
        "amount",
        "remaining",
        "done",
        "submitted_at",
        "completed_at",
    )

    def __init__(self, kernel: Kernel, rid: int, thread: SimThread,
                 amount: float) -> None:
        self.rid = rid
        self.thread = thread
        self.amount = float(amount)
        self.remaining = float(amount)
        self.done = Signal(kernel)
        self.submitted_at = kernel.now
        self.completed_at: Optional[float] = None

    @property
    def response_time(self) -> Optional[float]:
        """Submission-to-completion time, or ``None`` if still pending."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<WorkRequest {self.rid} thread={self.thread.name!r} "
            f"remaining={self.remaining:.6f}>"
        )


class CPU:
    """A uniprocessor with preemptive fixed-priority scheduling.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    name:
        Diagnostic label.
    speed:
        Relative speed factor; a request for ``w`` seconds of work takes
        ``w / speed`` seconds of simulated time when running alone.
    """

    __slots__ = ("kernel", "name", "speed", "_threads", "_queues",
                 "_current", "_run_start", "_slice",
                 "_ready_seq", "_ready_order", "busy_time",
                 "context_switches", "_last_dispatched",
                 "_ready_heap", "_reserved_threads", "_entry_seq", "_work_id")

    def __init__(
        self,
        kernel: Kernel,
        name: str = "cpu",
        speed: float = 1.0,
    ) -> None:
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.kernel = kernel
        self.name = name
        self.speed = float(speed)
        self._threads: List[SimThread] = []
        self._queues: Dict[int, List[WorkRequest]] = {}
        self._current: Optional[SimThread] = None
        self._run_start = 0.0
        #: The slice-end handle: pending while a slice runs, fired (and
        #: re-armed in place by the next dispatch) once it ended one,
        #: ``None`` after a preemption tombstoned it.
        self._slice: Optional[ScheduledEvent] = None
        self._ready_seq = itertools.count(1)
        self._ready_order: Dict[int, int] = {}
        #: Total busy CPU seconds (observability).
        self.busy_time = 0.0
        #: Number of context switches performed.
        self.context_switches = 0
        self._last_dispatched = -1
        # Dispatch working set, split by how the scheduling key ages.
        # Unreserved threads have a static key (priority, ready order),
        # so they live in a lazy max-heap and cost O(log n) per ready
        # transition instead of O(threads) per dispatch — the scan over
        # every registered thread made dispatch O(streams x events) once
        # the capacity farm parked 64 encoder threads here.  Reserved
        # threads have time-varying keys (EDF within the boost band) and
        # stay in a small list that is scanned exactly like before.
        self._ready_heap: List[Tuple[int, int, int, SimThread]] = []
        self._reserved_threads: List[SimThread] = []
        self._entry_seq = itertools.count(1)
        self._work_id = kernel.ids("work")

    # ------------------------------------------------------------------
    # Registration and submission
    # ------------------------------------------------------------------
    def register(self, thread: SimThread) -> None:
        self._threads.append(thread)
        self._queues[thread.tid] = []

    def submit(self, thread: SimThread, work_seconds: float) -> WorkRequest:
        """Queue ``work_seconds`` of CPU demand for ``thread``.

        Requests from the same thread execute in FIFO order.  Returns
        the request; wait on ``request.done`` for completion.
        """
        if work_seconds < 0:
            raise ValueError(f"negative work: {work_seconds}")
        if thread.state is DEAD:
            raise ValueError(
                f"cannot submit work to dead thread {thread.name!r}")
        request = WorkRequest(self.kernel, self._work_id(), thread,
                              work_seconds)
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.begin("os", "work", span=f"work:{request.rid}",
                         fields={"cpu": self.name, "thread": thread.name,
                                 "amount": work_seconds})
        queue = self._queues[thread.tid]
        queue.append(request)
        if thread.state is IDLE:
            self._make_ready(thread)
        self.reschedule()
        return request

    def _make_ready(self, thread: SimThread) -> None:
        thread.state = READY
        order = next(self._ready_seq)
        self._ready_order[thread.tid] = order
        if thread.reserve is None:
            heappush(
                self._ready_heap,
                (-thread.priority, order, next(self._entry_seq), thread),
            )

    def on_priority_change(self, thread: SimThread) -> None:
        """Re-key ``thread`` after a native-priority change.

        Old heap entries self-invalidate (their recorded priority no
        longer matches the thread's); a fresh entry keeps the thread
        dispatchable at its new priority within the same ready episode.
        """
        order = self._ready_order.get(thread.tid)
        if thread.reserve is None and order is not None:
            heappush(
                self._ready_heap,
                (-thread.priority, order, next(self._entry_seq), thread),
            )

    def on_reserve_attached(self, thread: SimThread) -> None:
        """Move ``thread`` to the dynamic-key (reserved) working set."""
        if thread not in self._reserved_threads:
            self._reserved_threads.append(thread)

    def on_thread_killed(self, thread: SimThread) -> None:
        """Tear ``thread`` out of every dispatch structure.

        Called from :meth:`SimThread.kill`.  The lazy ready-heap keeps
        stale entries by design; killing must therefore invalidate the
        thread's ready episode (``_ready_order``) *and* leave no pending
        work, so the staleness checks in :meth:`_dispatch` reject any
        leftover heap entry before it can run a dead thread.
        """
        if thread.state is DEAD:
            return
        if thread is self._current:
            # Settle the books for the partial slice and cancel the
            # armed slice-end event before tearing the thread down.
            self._charge_current()
        queue = self._queues[thread.tid]
        abandoned = len(queue)
        queue.clear()
        self._ready_order.pop(thread.tid, None)
        reserve = thread.reserve
        if reserve is not None:
            # Releases the admitted utilization; with the queue already
            # drained the detach hook re-inserts nothing.
            reserve.cancel()
        thread.state = DEAD
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("os", "thread.kill",
                           fields={"cpu": self.name, "thread": thread.name,
                                   "abandoned": abandoned})
        self.reschedule()

    def on_reserve_detached(self, thread: SimThread) -> None:
        """Return ``thread`` to the static-key heap after a cancel."""
        try:
            self._reserved_threads.remove(thread)
        except ValueError:
            pass
        order = self._ready_order.get(thread.tid)
        if order is not None and self._queues[thread.tid]:
            heappush(
                self._ready_heap,
                (-thread.priority, order, next(self._entry_seq), thread),
            )

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------
    def reschedule(self) -> None:
        """Charge the running thread and re-select the highest-priority one.

        Safe to call at any time; this is the single entry point used by
        submissions, priority changes, and reserve events.
        """
        self._charge_current()
        self._dispatch()

    def _charge_current(self) -> None:
        thread = self._current
        if thread is None:
            return
        now = self.kernel.now
        elapsed = max(0.0, now - self._run_start)
        if self._slice._kernel is not None:
            # Preempted: the slice-end event is still queued.  Tombstone
            # it; the next dispatch arms a fresh handle.
            self._slice.cancel()
            self._slice = None
        self._current = None
        queue = self._queues[thread.tid]
        request = queue[0] if queue else None
        consumed = elapsed * self.speed
        thread.cpu_time += consumed
        self.busy_time += elapsed
        if request is not None:
            request.remaining -= consumed
        reserve = thread.reserve
        depleted = False
        if reserve is not None and consumed > 0:
            depleted = reserve.consume(consumed)
        if request is not None and request.remaining <= _EPSILON:
            self._complete(thread, request)
        elif depleted and reserve is not None and reserve.is_hard:
            thread.state = SUSPENDED
        else:
            thread.state = READY
        if request is not None and request.remaining > _EPSILON:
            tracer = self.kernel.tracer
            if tracer is not None and consumed > 0:
                tracer.instant(
                    "os", "cpu.preempt",
                    fields={"cpu": self.name, "thread": thread.name,
                            "consumed": consumed,
                            "remaining": request.remaining,
                            "depleted": depleted},
                )
        if (
            depleted
            and reserve is not None
            and self._queues[thread.tid]
        ):
            # Work is still pending: make sure the scheduler is kicked
            # when the budget returns at the next period boundary.
            reserve.arm_wakeup()

    def _complete(self, thread: SimThread, request: WorkRequest) -> None:
        queue = self._queues[thread.tid]
        queue.pop(0)
        request.remaining = 0.0
        request.completed_at = self.kernel.now
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.end("os", "work", span=f"work:{request.rid}",
                       fields={"cpu": self.name, "thread": thread.name,
                               "response": request.response_time})
        request.done.fire(request)
        if queue:
            thread.state = READY
        else:
            thread.state = IDLE
            self._ready_order.pop(thread.tid, None)

    def _dispatch(self) -> None:
        """Run the highest-priority ready thread until its next
        scheduling point: its request done, its budget spent or its
        period boundary reached.

        A reserved thread's key is read once per decision, through
        :meth:`~repro.oskernel.reserve.Reserve.boost_deadline`: the
        boost band ranks budgeted reserves earliest deadline first, and
        the winner's deadline also bounds its slice.
        """
        now = self.kernel.now
        candidate: Optional[SimThread] = None
        best_priority = 0.0
        best_order = 0
        deadline: Optional[float] = None
        queues = self._queues
        ready_order = self._ready_order
        for thread in self._reserved_threads:
            state = thread.state
            if state is not READY and state is not RUNNING:
                continue
            if not queues[thread.tid]:
                continue
            reserve = thread.reserve
            due = reserve.boost_deadline(now)
            if due is None:
                # Spent: a soft reserve's thread competes natively.
                priority = float(thread._priority)
            else:
                priority = 2.0 * reserve.boost_band - due
            order = -ready_order.get(thread.tid, 0)
            if (candidate is None or priority > best_priority
                    or (priority == best_priority and order > best_order)):
                candidate = thread
                best_priority = priority
                best_order = order
                deadline = due
        heap = self._ready_heap
        while heap:
            neg_priority, order, _seq, thread = heap[0]
            state = thread.state
            if (
                thread.reserve is not None
                or ready_order.get(thread.tid) != order
                or thread._priority != -neg_priority
                or not queues[thread.tid]
                or (state is not READY and state is not RUNNING)
            ):
                heappop(heap)  # stale entry: episode or key moved on
                continue
            # Valid top: the best unreserved contender.  It stays in the
            # heap (its key is unchanged while it keeps pending work).
            priority = float(-neg_priority)
            if (candidate is None or priority > best_priority
                    or (priority == best_priority and -order > best_order)):
                candidate = thread
                best_priority = priority
                deadline = None
            break
        if candidate is None:
            return
        request = queues[candidate.tid][0]
        candidate.state = RUNNING
        self._current = candidate
        self._run_start = now
        if candidate.tid != self._last_dispatched:
            self.context_switches += 1
            self._last_dispatched = candidate.tid
            tracer = self.kernel.tracer
            if tracer is not None:
                tracer.instant("os", "cpu.dispatch",
                               fields={"cpu": self.name,
                                       "thread": candidate.name,
                                       "priority": best_priority})
        slice_work = request.remaining
        if deadline is not None:
            # Run at most until the budget is exhausted or the period
            # boundary replenishes it, then re-evaluate — a slice must
            # never straddle a boundary, or the charge would deplete a
            # budget that was refilled mid-slice.
            slice_work = min(
                slice_work,
                candidate.reserve.budget_remaining,
                max(_EPSILON, (deadline - now) * self.speed),
            )
        kernel = self.kernel
        event = self._slice
        if event is None:
            self._slice = kernel.schedule(slice_work / self.speed,
                                          self.reschedule)
            return
        # The handle ended the last slice and has not been armed since
        # (``_charge_current`` drops a preempted one): re-arm it in
        # place (``sim/kernel.py``, "Re-arming in place").
        seq = kernel._seq
        kernel._seq = seq + 1
        event._kernel = kernel
        heappush(kernel._heap, (now + slice_work / self.speed, seq, event))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def backlog(self, thread: SimThread) -> List[WorkRequest]:
        """``thread``'s pending requests, oldest (running or next) first.

        The live list, never rebound for the thread's life, so a caller
        may hold it and read its length; it must not change it.
        """
        return self._queues[thread.tid]

    def __repr__(self) -> str:  # pragma: no cover
        running = self._current.name if self._current else None
        return f"<CPU {self.name!r} running={running!r}>"
