"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator and drives it against a
:class:`~repro.sim.kernel.Kernel`.  The generator suspends by yielding
one of:

``Timeout(dt)`` (or a bare ``int``/``float``)
    Resume after ``dt`` simulated seconds.

``Signal``
    Resume when the signal fires; the fired value is sent back into the
    generator.

A process's ``return`` value is kept in :attr:`Process.result`.  An
exception escaping the generator stops the run with a
:class:`ProcessError`: no caller waits on a process, so there is no one
else to hand it to.  A failed check, an :class:`AssertionError` such as
an invariant checker's violation, stops it as itself: whoever catches
the check's failure must still see it, whatever body it was raised in.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.sim.kernel import Kernel, SimulationError


class ProcessError(SimulationError):
    """A process yielded something it cannot wait on, or raised."""


class Timeout:
    """Yieldable: suspend the process for ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ProcessError(f"negative timeout: {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay})"


class Signal:
    """A broadcast wake-up primitive.

    Waiters registered at fire time are all resumed with the fired
    value.  A signal may fire many times; each fire wakes only the
    waiters present at that moment.  ``fire`` is processed *immediately*
    (same simulated instant), but waiters resume via a zero-delay kernel
    event so that ordering stays deterministic.
    """

    __slots__ = ("_kernel", "name", "_waiters", "fire_count")

    def __init__(self, kernel: Kernel, name: str = "") -> None:
        self._kernel = kernel
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        #: Number of times the signal has fired (observability).
        self.fire_count = 0

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Call ``callback(value)`` at the next fire."""
        self._waiters.append(callback)

    def fire(self, value: Any = None) -> int:
        """Wake all current waiters with ``value``; returns waiter count."""
        waiters, self._waiters = self._waiters, []
        self.fire_count += 1
        for callback in waiters:
            self._kernel.schedule(0.0, callback, value)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Signal {self.name!r} waiters={len(self._waiters)}>"


class Process:
    """Drives a generator as a simulation coroutine.

    Parameters
    ----------
    kernel:
        The kernel supplying the clock.
    generator:
        The coroutine body.  Its ``return`` value becomes
        :attr:`result`.
    name:
        Diagnostic label.
    """

    def __init__(
        self,
        kernel: Kernel,
        generator: Generator[Any, Any, Any],
        name: str = "process",
    ) -> None:
        self.kernel = kernel
        self.name = name
        self._generator = generator
        self.alive = True
        self.result: Any = None
        #: Exception that terminated the process, if any.
        self.error: Optional[BaseException] = None
        # Start on the next kernel tick so construction order does not
        # matter within a single simulated instant.
        kernel.schedule(0.0, self._resume, None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        try:
            yielded = self._generator.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except Exception as exc:
            self._finish(error=exc)
            return
        try:
            self._arm(yielded)
        except ProcessError as exc:
            self._generator.close()
            self._finish(error=exc)

    def _finish(
        self, result: Any = None, error: Optional[BaseException] = None
    ) -> None:
        self.alive = False
        self.result = result
        self.error = error
        if isinstance(error, AssertionError):
            raise error
        if error is not None:
            raise ProcessError(
                f"process {self.name!r} died: {error!r}"
            ) from error

    def _arm(self, yielded: Any) -> None:
        """Install the wait described by a yielded value."""
        if isinstance(yielded, (int, float)):
            yielded = Timeout(yielded)
        if isinstance(yielded, Timeout):
            self.kernel.schedule(yielded.delay, self._resume, None)
        elif isinstance(yielded, Signal):
            # A lambda, not the bound method: the traced dispatch record
            # names this callback by its qualname.
            yielded.wait(lambda value: self._resume(value))
        else:
            raise ProcessError(
                f"process {self.name!r} yielded unsupported value: {yielded!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
