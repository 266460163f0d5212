"""How fast is this machine right now?  A clock for a shared host.

The boxes this benchmark runs on are a few cores of a shared host whose
speed wanders by tens of percent over seconds (README.md, "Noise"): the
same pass of the same code took 2.5 s and then 4.1 s.  Raw host seconds
therefore say more about the neighbours than about the program.

``SpeedSampler`` measures the wandering instead of suffering it.  Every
``PERIOD_S`` an interval timer interrupts the program and runs
``chunk()``, a fixed piece of pure-Python work that touches nothing of
the program's (a small event loop on ``heapq``, a dict and slotted
objects, the simulator's own diet).  How long the chunk took there and
then, against ``NOMINAL_CHUNK_S``, is the machine's speed at that
moment.  The program's own time between two chunks is then counted at
the mean speed seen at its two ends, which gives *seconds at nominal
speed*: the time the span would have taken on the sizing box when
quiet.  Time spent inside chunks is not the program's and is removed.

The reference is part of the benchmark, not of the program, so a change
to ``src/`` cannot move it; a span that does twice the work still reads
twice as long.
"""

from __future__ import annotations

import gc
import heapq
import signal
from time import perf_counter
from typing import List, Tuple

#: Seconds one ``chunk()`` takes on the box the workloads were sized on
#: (Xeon 2.1 GHz microVM, CPython 3.11) when nothing disturbs it.
NOMINAL_CHUNK_S = 0.0024
#: Program seconds between two samples.
PERIOD_S = 0.05

_CHUNK_EVENTS = 4000


class _Counter:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value


def chunk() -> None:
    """A fixed amount of simulator-like work on the stdlib alone."""
    heap: List[Tuple[float, int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    counters = {}
    state = 12345
    for seq in range(64):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, (state % 1000 / 10.0, seq, state % 97))
    seq = 64
    for _ in range(_CHUNK_EVENTS):
        now, _, key = pop(heap)
        counter = counters.get(key)
        if counter is None:
            counter = counters[key] = _Counter()
        counter.add(now)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        push(heap, (now + state % 1000 / 100.0, seq, state % 97))


class SpeedSampler:
    """Samples the machine's speed while the program runs (main thread)."""

    def __init__(self) -> None:
        #: ``(start, end)`` of every chunk run, on ``perf_counter``.
        self.chunks: List[Tuple[float, float]] = []
        self._running = False

    def start(self) -> None:
        self._running = True
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Take a last sample and disarm; nothing if never started."""
        if self._running:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._sample()

    def _sample(self, *_signal_args) -> None:
        # A full collection landing inside the chunk would charge the
        # program's heap to the machine; it runs just after instead.
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter()
        chunk()
        self.chunks.append((started, perf_counter()))
        if collecting:
            gc.enable()

    def measure(self, begin: float, end: float) -> Tuple[float, float]:
        """``(own seconds, seconds at nominal speed)`` of ``[begin, end]``.

        Own seconds are the span minus the chunks inside it.  Each piece
        of program time between two chunks is scaled by the mean of
        nominal/measured at the chunks on either side of it; before the
        first chunk and after the last, by that chunk alone.  A sampler
        that never ran knows nothing and returns the span twice.
        """
        if not self.chunks:
            return end - begin, end - begin
        speeds = [NOMINAL_CHUNK_S / (stop - start)
                  for start, stop in self.chunks]
        own = nominal = 0.0
        piece_begin = float("-inf")
        for k in range(len(self.chunks) + 1):
            piece_end = (self.chunks[k][0] if k < len(self.chunks)
                         else float("inf"))
            overlap = min(end, piece_end) - max(begin, piece_begin)
            if overlap > 0.0:
                around = speeds[max(0, k - 1):k + 1]
                own += overlap
                nominal += overlap * sum(around) / len(around)
            if k < len(self.chunks):
                piece_begin = self.chunks[k][1]
        return own, nominal
