"""QuO delegates: in-band adaptive proxies.

"Delegates are proxies that can be inserted into the path of object
interactions transparently ... When a method call or return is made,
the delegate checks the system state, as recorded by a set of
contracts, and selects a behavior based upon it."

A :class:`Delegate` wraps a generated stub.  For each outgoing call it
looks up the behavior registered for the contract's current region:

* ``None`` (no behavior registered) — pass the call through;
* a callable ``behavior(delegate, operation, args, proceed)`` — full
  control: it may tweak QoS knobs on the stub (priority, DSCP), drop
  the call (return without invoking ``proceed``), or transform
  arguments before proceeding.

The delegate quacks like the stub, so application code is unchanged —
the QuO insertion-transparency property.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.process import Signal
from repro.quo.contract import Contract

#: behavior(delegate, operation_name, args, proceed) -> Signal | None
Behavior = Callable[["Delegate", str, tuple, Callable[..., Signal]], Any]


class Delegate:
    """Wraps a stub with per-region call behaviors."""

    def __init__(
        self,
        stub: Any,
        contract: Contract,
        behaviors: Optional[Dict[str, Behavior]] = None,
    ) -> None:
        # Avoid __setattr__ recursion by writing through __dict__.
        self.__dict__["_stub"] = stub
        self.__dict__["_contract"] = contract
        self.__dict__["_behaviors"] = dict(behaviors or {})
        self.__dict__["calls_passed"] = 0
        self.__dict__["calls_adapted"] = 0
        self.__dict__["calls_dropped"] = 0

    # ------------------------------------------------------------------
    @property
    def stub(self) -> Any:
        return self._stub

    # ------------------------------------------------------------------
    # Transparent proxying
    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        target = getattr(self._stub, name)
        if not callable(target):
            return target

        def adapted(*args: Any) -> Any:
            return self._dispatch(name, target, args)

        adapted.__name__ = name
        return adapted

    def __setattr__(self, name: str, value: Any) -> None:
        # QoS knobs and other attributes flow through to the stub.
        setattr(self._stub, name, value)

    def _dispatch(self, operation: str, target: Callable, args: tuple) -> Any:
        region = self._contract.current_region
        if region is None:
            region = self._contract.evaluate()
        behavior = self._behaviors.get(region)
        if behavior is None:
            self.__dict__["calls_passed"] += 1
            return target(*args)

        proceeded = {"flag": False}

        def proceed(*new_args: Any) -> Any:
            proceeded["flag"] = True
            return target(*(new_args or args))

        result = behavior(self, operation, args, proceed)
        if proceeded["flag"]:
            self.__dict__["calls_adapted"] += 1
        else:
            self.__dict__["calls_dropped"] += 1
        return result

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Delegate around {self._stub!r} "
            f"region={self._contract.current_region!r}>"
        )
