"""Qoskets: reusable QoS behavior bundles.

The paper cites its companion work [Qosket:02] ("Packaging Quality of
Service Control Behaviors for Reuse"): a *qosket* groups the contract,
the system conditions it watches, and the adaptive behaviors it
installs, so one adaptation policy can be attached to many
applications.

:class:`Qosket` is the packaging mechanism: subclass it (or compose
one imperatively), then :meth:`apply` it to a stub to get a wired-up
:class:`~repro.quo.delegate.Delegate`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.kernel import Kernel
from repro.quo.contract import Contract
from repro.quo.delegate import Behavior, Delegate
from repro.quo.syscond import SystemCondition


class Qosket:
    """A packaged adaptation policy.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    contract:
        The packaged contract (regions + callbacks already configured).
    conditions:
        System conditions to attach to the contract.
    behaviors:
        Per-region in-band behaviors installed on every delegate this
        qosket produces.
    """

    def __init__(
        self,
        kernel: Kernel,
        contract: Contract,
        conditions: Optional[List[SystemCondition]] = None,
        behaviors: Optional[Dict[str, Behavior]] = None,
    ) -> None:
        self.kernel = kernel
        self.contract = contract
        self.conditions = list(conditions or [])
        self.behaviors = dict(behaviors or {})
        self.delegates: List[Delegate] = []
        for condition in self.conditions:
            if condition.name not in contract.conditions:
                contract.attach(condition)

    def start(self) -> None:
        """Start every periodic condition and settle the contract."""
        for condition in self.contract.conditions.values():
            start = getattr(condition, "start", None)
            if start is not None:
                start()
        self.contract.evaluate()

    def stop(self) -> None:
        for condition in self.contract.conditions.values():
            stop = getattr(condition, "stop", None)
            if stop is not None:
                stop()

    def apply(self, stub: Any) -> Delegate:
        """Wrap ``stub`` in a delegate carrying this qosket's behaviors."""
        delegate = Delegate(stub, self.contract, behaviors=self.behaviors)
        self.delegates.append(delegate)
        return delegate

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Qosket contract={self.contract.name!r} "
            f"delegates={len(self.delegates)}>"
        )
