"""QuO contracts.

A contract encodes "the possible states the system might be in, as
well as which actions to perform when the state changes": an ordered
list of :class:`Region` objects with predicates over system
conditions.  Whenever an attached condition changes, the contract
re-evaluates; on a region change it runs exit/enter callbacks and
records a :class:`Transition`.

Regions are evaluated in order and the first true predicate wins, so
contracts read like guarded alternatives, most-specific first.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.sim.kernel import Kernel
from repro.sim.process import Signal
from repro.quo.syscond import SystemCondition

#: Predicate signature: receives {condition name: value}.
Predicate = Callable[[Dict[str, Any]], bool]
#: Region callbacks receive the contract.
RegionCallback = Callable[["Contract"], None]


class Region:
    """One operating region.

    Parameters
    ----------
    name:
        Region label (e.g. "normal", "degraded", "overloaded").
    predicate:
        Truth test over the condition snapshot; ``None`` means "always
        true" (use for the final catch-all region).
    on_enter / on_exit:
        Adaptation actions.
    """

    def __init__(
        self,
        name: str,
        predicate: Optional[Predicate] = None,
        on_enter: Optional[RegionCallback] = None,
        on_exit: Optional[RegionCallback] = None,
    ) -> None:
        self.name = name
        self.predicate = predicate
        self.on_enter = on_enter
        self.on_exit = on_exit

    def matches(self, snapshot: Dict[str, Any]) -> bool:
        if self.predicate is None:
            return True
        return bool(self.predicate(snapshot))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Region {self.name!r}>"


class Transition:
    """A recorded region change (observability)."""

    __slots__ = ("time", "from_region", "to_region", "snapshot")

    def __init__(
        self,
        time: float,
        from_region: Optional[str],
        to_region: str,
        snapshot: Dict[str, Any],
    ) -> None:
        self.time = time
        self.from_region = from_region
        self.to_region = to_region
        self.snapshot = snapshot

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Transition {self.from_region} -> {self.to_region} "
            f"@{self.time:.3f}>"
        )


class Contract:
    """Operating regions over a set of system conditions.

    >>> from repro.sim import Kernel
    >>> from repro.quo.syscond import ValueSC
    >>> kernel = Kernel()
    >>> load = ValueSC(kernel, "load", initial=0.0)
    >>> contract = Contract(kernel, "demo", regions=[
    ...     Region("overloaded", lambda s: s["load"] > 0.8),
    ...     Region("normal"),
    ... ])
    >>> contract.attach(load)
    >>> contract.evaluate()
    'normal'
    >>> load.set(0.95)
    >>> contract.current_region
    'overloaded'
    """

    def __init__(
        self, kernel: Kernel, name: str, regions: List[Region]
    ) -> None:
        if not regions:
            raise ValueError("a contract needs at least one region")
        names = [region.name for region in regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names: {names}")
        self.kernel = kernel
        self.name = name
        self.regions = list(regions)
        self.conditions: Dict[str, SystemCondition] = {}
        self.current_region: Optional[str] = None
        self.transitions: List[Transition] = []
        #: Fired with each Transition.
        self.transitioned = Signal(kernel, name=f"contract.{name}")
        # Re-entrancy guard: an on_enter/on_exit callback that sets a
        # condition triggers observe -> evaluate while this evaluation
        # is mid-transition.  Nested calls are deferred and replayed
        # after the outer transition completes, keeping `transitions`
        # in causal order (see _REEVALUATION_LIMIT).
        self._evaluating = False
        self._reevaluate = False

    #: Deferred re-evaluations allowed per outer evaluate() before the
    #: contract is declared livelocked (callbacks toggling a condition
    #: back and forth would otherwise spin forever).
    _REEVALUATION_LIMIT = 64

    # ------------------------------------------------------------------
    def attach(self, condition: SystemCondition) -> None:
        """Watch ``condition``; re-evaluate whenever it changes."""
        if condition.name in self.conditions:
            raise ValueError(
                f"condition {condition.name!r} already attached to {self.name!r}"
            )
        self.conditions[condition.name] = condition
        condition.observe(lambda _condition: self.evaluate())

    def snapshot(self) -> Dict[str, Any]:
        return {name: cond.value for name, cond in self.conditions.items()}

    def region(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(f"no region {name!r} in contract {self.name!r}")

    # ------------------------------------------------------------------
    def evaluate(self) -> str:
        """Re-evaluate regions; runs callbacks on a region change.

        Re-entrant calls (an ``on_enter``/``on_exit`` callback setting a
        condition that observers turn back into ``evaluate()``) do not
        recurse: the nested request is deferred until the in-flight
        transition has fully committed, then replayed, so transition
        records stay causally ordered and callbacks never nest.
        """
        if self._evaluating:
            self._reevaluate = True
            # The outer call replays after its transition commits; the
            # region it lands on is the authoritative answer.
            return self.current_region if self.current_region is not None \
                else self.regions[-1].name
        self._evaluating = True
        try:
            result = self._evaluate_once()
            replays = 0
            while self._reevaluate:
                self._reevaluate = False
                replays += 1
                if replays > self._REEVALUATION_LIMIT:
                    raise RuntimeError(
                        f"contract {self.name!r}: region callbacks keep "
                        f"re-triggering evaluation (> "
                        f"{self._REEVALUATION_LIMIT} deferred replays); "
                        "likely a condition-setting callback livelock")
                result = self._evaluate_once()
        finally:
            self._evaluating = False
            self._reevaluate = False
        return result

    def _evaluate_once(self) -> str:
        snapshot = self.snapshot()
        matched = None
        for region in self.regions:
            if region.matches(snapshot):
                matched = region
                break
        if matched is None:
            raise RuntimeError(
                f"contract {self.name!r}: no region matches {snapshot!r} "
                "(add a catch-all region)"
            )
        if matched.name == self.current_region:
            return matched.name
        previous = self.current_region
        if previous is not None:
            previous_region = self.region(previous)
            if previous_region.on_exit is not None:
                previous_region.on_exit(self)
        self.current_region = matched.name
        transition = Transition(
            self.kernel.now, previous, matched.name, snapshot
        )
        self.transitions.append(transition)
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("quo", "region.transition",
                           fields={"contract": self.name,
                                   "from_region": previous,
                                   "to_region": matched.name})
        if matched.on_enter is not None:
            matched.on_enter(self)
        self.transitioned.fire(transition)
        return matched.name

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Contract {self.name!r} region={self.current_region!r}>"
