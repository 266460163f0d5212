"""Compiling a :class:`~repro.faults.plan.FaultPlan` onto a simulation.

The :class:`FaultInjector` resolves each event's symbolic targets
(link ends, node names, flow ids) against a live
:class:`~repro.net.topology.Network` (a target the topology lacks is a
:class:`~repro.faults.plan.FaultPlanError` at install; an index target
names the link or node at that position, modulo the count, in the
sorted lists that error shows), schedules the
begin/end edges on the kernel, and emits every lifecycle transition on
the ``fault`` trace layer.  An optional
:class:`~repro.quo.syscond.FaultReporterSC` is notified at every edge
so QuO contracts can react to outages the instant they start instead
of waiting for loss statistics to accumulate.

Determinism: the injector takes no wall-clock input and draws burst
loss from a caller-supplied named RNG stream, so a (plan, seed) pair
replays bit-identically at any worker count.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.faults.plan import FaultEvent, FaultPlan, FaultPlanError
from repro.sim.kernel import Kernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.topology import Network
    from repro.quo.syscond import FaultReporterSC

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules a fault plan's events onto a kernel.

    Parameters
    ----------
    kernel:
        The simulation kernel faults are scheduled on.
    network:
        Topology used to resolve ``link``/``node``/``flow`` targets.
    reporter:
        Optional :class:`FaultReporterSC`; told when each fault starts
        and clears.
    rng:
        Random stream for ``loss_burst`` draws (usually
        ``RngRegistry(seed).stream("faults")``).  Required only if the
        plan contains a loss burst.
    """

    def __init__(
        self,
        kernel: Kernel,
        network: "Network",
        reporter: Optional["FaultReporterSC"] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.reporter = reporter
        self.rng = rng
        #: (label, start, end) for every injected fault (observability;
        #: point events have end == start).
        self.injected: List[Tuple[str, float, float]] = []

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def install(self, plan: FaultPlan) -> FaultPlan:
        """Schedule every event in ``plan`` (relative to *now*); returns
        the plan as installed, each index target resolved to its name."""
        events = []
        for index, event in enumerate(plan):
            event = self._resolved(event)
            events.append(event)
            begin, end = self._edges_for(event)
            span = f"fault:{index}:{event.label()}"
            self.kernel.schedule(event.at, self._begin, event, span, begin)
            if event.until is not None:
                self.kernel.schedule(event.until, self._end, event, span,
                                     end)
            self.injected.append((
                event.label(), event.at,
                event.until if event.until is not None else event.at))
        return FaultPlan(events)

    def _links(self) -> List[List[str]]:
        """Every link's ``[a, b]`` device names, sorted as ``"a-b"``."""
        return sorted(([link.a.owner.name, link.b.owner.name]
                       for link in self.network.links), key="-".join)

    def _nodes(self) -> List[str]:
        return sorted([host.name for host in self.network.hosts]
                      + [router.name for router in self.network.routers])

    def _resolved(self, event: FaultEvent) -> FaultEvent:
        """``event`` with an index ``link`` / ``node`` replaced by the
        name at that position, modulo the count, of :meth:`_links` /
        :meth:`_nodes`; a named target is returned as it is."""
        for key, choices in (("link", self._links), ("node", self._nodes)):
            target = event.fields.get(key)
            if type(target) is int:
                names = choices()
                return FaultEvent(event.kind, **{
                    **event.fields, key: names[target % len(names)]})
        return event

    # ------------------------------------------------------------------
    def _begin(self, event: FaultEvent, span: str,
               action: Callable[[], None]) -> None:
        tracer = self.kernel.tracer
        if tracer is not None:
            if event.until is not None:
                tracer.begin("fault", event.kind, span=span,
                             fields=self._trace_fields(event))
            else:
                tracer.instant("fault", event.kind,
                               fields=self._trace_fields(event))
        action()
        if self.reporter is not None and event.until is not None:
            self.reporter.fault_started(event.label())

    def _end(self, event: FaultEvent, span: str,
             action: Callable[[], None]) -> None:
        action()
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.end("fault", event.kind, span=span,
                       fields=self._trace_fields(event))
        if self.reporter is not None:
            self.reporter.fault_cleared(event.label())

    @staticmethod
    def _trace_fields(event: FaultEvent) -> Dict[str, object]:
        fields = dict(event.fields)
        if "link" in fields:
            fields["link"] = "-".join(fields["link"])
        return {k: v for k, v in fields.items() if v is not None}

    # ------------------------------------------------------------------
    # Per-kind begin/end actions
    # ------------------------------------------------------------------
    def _edges_for(
        self, event: FaultEvent
    ) -> Tuple[Callable[[], None], Callable[[], None]]:
        return getattr(self, f"_compile_{event.kind}")(event)

    def _link_for(self, event: FaultEvent) -> "Link":
        try:
            return self.network.link_between(*event.fields["link"])
        except KeyError:
            raise FaultPlanError(
                f"fault {event.label()}: no such link; choose from: "
                f"{', '.join(map('-'.join, self._links()))}") from None

    def _compile_link_flap(self, event):
        link = self._link_for(event)
        return link.fail, link.restore

    def _compile_link_down(self, event):
        link = self._link_for(event)
        return link.fail, lambda: None

    def _compile_loss_burst(self, event):
        link = self._link_for(event)
        if self.rng is None:
            raise ValueError(
                f"{event.label()}: loss bursts need an rng stream")
        loss = float(event.fields["loss"])

        def begin() -> None:
            link.loss_probability = loss
            link.loss_rng = self.rng

        def end() -> None:
            link.loss_probability = 0.0
            link.loss_rng = None

        return begin, end

    def _compile_link_degrade(self, event):
        link = self._link_for(event)
        factor = float(event.fields["factor"])
        nominal = link.bandwidth_bps

        def begin() -> None:
            link.bandwidth_bps = nominal * factor

        def end() -> None:
            link.bandwidth_bps = nominal

        return begin, end

    def _compile_node_crash(self, event):
        try:
            device = self.network.device(event.fields["node"])
        except KeyError:
            raise FaultPlanError(
                f"fault {event.label()}: no such node; choose from: "
                f"{', '.join(self._nodes())}") from None
        interfaces = device.interfaces
        if isinstance(interfaces, dict):
            interfaces = list(interfaces.values())
        links = [iface.link for iface in interfaces if iface.link is not None]
        lose_state = bool(event.fields["lose_state"])

        def begin() -> None:
            for link in links:
                link.fail()
            agent = getattr(device, "rsvp_agent", None)
            if lose_state and agent is not None:
                agent.drop_all_state()

        def end() -> None:
            for link in links:
                link.restore()

        return begin, end

    def _compile_resv_loss(self, event):
        flow_id = str(event.fields["flow"])
        routers = self.network.routers

        def begin() -> None:
            for router in routers:
                agent = router.rsvp_agent
                if agent is not None:
                    agent.drop_reservation_state(flow_id)

        return begin, lambda: None

