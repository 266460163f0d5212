"""The one definition of what an experiment arm is, and of what it
returns.

Every ``*Arm`` class is a dataclass deriving from :class:`Arm`:
its field list is written once, in the class body, and the
RunSpec form, equality, repr and pickling all follow from it.  Its
:meth:`Arm.policy` states, from those fields, the point of the paper's
QoS matrix the scenario hands the testbed's manager.  Every scenario's
result derives from :class:`ArmResult`, and each finding a figure's
results must show is a :class:`Claim`.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.core.policies import QosPolicy


class Arm:
    """A named set of mechanism switches (``name`` is the first field)."""

    def params(self) -> Dict[str, Any]:
        """The arm as RunSpec-ready constructor kwargs.

        ``type(arm)(**arm.params()) == arm``; this dict is what travels
        under a spec's ``"arm"`` key.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def policy(self, *stream: Any) -> QosPolicy:
        """The arm's :class:`~repro.core.policies.QosPolicy`, derived
        from its fields; per-stream inputs (a sender's lane, an
        admission verdict) are the arguments."""
        raise NotImplementedError(
            f"{type(self).__name__} states no QoS policy")

    def __reduce__(self):
        # Not the default dict-state protocol: the "adaptive" arm's
        # *name* equals an *attribute* name, and whether those two
        # equal strings are one interned object or two changes
        # pickle's memo structure — so a result that crossed a worker
        # process repickled 9 bytes longer than a fresh one, breaking
        # the byte-parity guarantee.  A constructor-call reduce never
        # serializes the attribute dict, so the bytes are stable.
        return (self.__class__, tuple(self.params().values()))


class ArmResult:
    """What one arm's run returns: plain data only.

    A result holds the measurements its figure reads (counters, rows,
    recorders' time series) and no simulation object: the actors,
    engines and reserves that produced them stay locals of the scenario
    function, read once at capture time.  So a held result keeps none
    of its run's world alive, and the in-process payload is the one a
    worker process or the cache hands back.
    """

    def __init__(self, arm: Arm, duration: float) -> None:
        self.arm = arm
        self.duration = float(duration)
        #: Kernel event count for the run (throughput observability).
        self.events_executed = 0


class StreamResult(ArmResult):
    """An arm that ran one ``src -> dst`` video stream.

    The metrics are read from the stream's delivery recorder (plain
    time series), which :meth:`capture` keeps when the run finishes.
    """

    def __init__(self, arm: Arm, duration: float) -> None:
        super().__init__(arm, duration)
        #: The pair's one :class:`~repro.core.metrics.DeliveryRecorder`.
        self.sender_delivery = None
        #: The A/V flow the receiver consumed (trace records name it).
        self.flow_id: Optional[str] = None

    def capture(self, sender, receiver, events_executed: int) -> None:
        """Stop ``sender`` and keep the pair's books; ``sender`` is
        ``None`` when the stream never bound."""
        if sender is None:
            raise RuntimeError(
                f"stream setup failed for arm {self.arm.name!r} "
                "(reservation not admitted?)")
        sender.stop()
        self.sender_delivery = sender.delivery
        self.flow_id = receiver.consumer.flow_id
        self.events_executed = events_executed

    def delivered_in(self, start: float, end: float) -> int:
        return self.sender_delivery.received_count(start, end)

    def delivered_fps(self, start: float, end: float) -> float:
        """Delivered frame rate over ``[start, end)``; 0 on an empty span."""
        if end <= start:
            return 0.0
        return self.delivered_in(start, end) / (end - start)

    def cumulative_counts(self, bin_width: float):
        """The Fig 7 'frames sent / received' curves over the run."""
        return self.sender_delivery.cumulative_counts(
            bin_width, self.duration)


class Claim(NamedTuple):
    """One finding a figure's runs must show.

    ``holds`` takes exactly what the figure's renderer takes (``{arm
    label: payload}``, or ``{arm label: [payload per point]}`` on a
    sweep figure) and says whether the finding holds.  ``name`` is the
    paper sentence or finding it checks.
    """

    name: str
    holds: Callable[[Dict[str, Any]], bool]


def sweep_lookup(param: str
                 ) -> Callable[[Dict[str, List[Any]], str, int], Any]:
    """The claims' point lookup for a figure swept over ``param``:
    ``at(runs, arm, point)`` is arm ``arm``'s run whose ``param`` (the
    result attribute named like the spec param) equals ``point``."""

    def at(sweeps: Dict[str, List[Any]], arm: str, point: int) -> Any:
        return next(run for run in sweeps[arm]
                    if getattr(run, param) == point)

    return at
