"""The object graph an invariant checker inspects.

A :class:`World` is a read-only view over one simulation's live
components: the kernel, the network topology (from which queue
disciplines, links and RSVP agents are discovered), the hosts (CPUs
and reserve managers), and any QuO contracts.  Checkers receive the
world at :meth:`attach` time and must treat it as *read-only* —
walking its accessors never mutates simulation state, so a checked run
stays bit-identical to an unchecked one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.sim.kernel import Kernel
    from repro.net.queues import QueueDiscipline
    from repro.net.topology import Network
    from repro.oskernel.cpu import CPU
    from repro.oskernel.host import Host
    from repro.oskernel.reserve import ReserveManager
    from repro.quo.contract import Contract

__all__ = ["World"]


class World:
    """Everything one run exposes to its invariant monitors.

    Parameters
    ----------
    kernel:
        The simulation kernel (required; time and trace source).
    network:
        Optional :class:`~repro.net.topology.Network`; qdiscs, links
        and RSVP agents are discovered from it.
    hosts:
        Hosts whose CPUs and reserve managers should be watched.
    contracts:
        QuO contracts to verify (trace-level chain checks work without
        registration; registering enables object-level final checks).
    fluid:
        Optional :class:`~repro.fluid.engine.FluidEngine` (hybrid
        scenarios); enables the fluid conservation-ledger checks.
    routing:
        Optional :class:`~repro.net.routing.LinkStateRouting`; enables
        the LSDB-vs-installed-table consistency checks.
    pubsub:
        Optional :class:`~repro.pubsub.broker.Broker`; enables the
        pub-sub delivery/history invariant checks.
    """

    def __init__(
        self,
        kernel: "Kernel",
        network: Optional["Network"] = None,
        hosts: Iterable["Host"] = (),
        contracts: Iterable["Contract"] = (),
        fluid=None,
        routing=None,
        pubsub=None,
    ) -> None:
        self.kernel = kernel
        self.network = network
        self.hosts: List["Host"] = list(hosts)
        self.contracts: List["Contract"] = list(contracts)
        self.fluid = fluid
        self.routing = routing
        self.pubsub = pubsub

    # ------------------------------------------------------------------
    # Discovery walks
    # ------------------------------------------------------------------
    def qdiscs(self) -> Dict[str, "QueueDiscipline"]:
        """``"device.iface"`` label -> egress queue discipline."""
        out: Dict[str, "QueueDiscipline"] = {}
        if self.network is None:
            return out
        for link in self.network.links:
            for iface in (link.a, link.b):
                out[iface.label] = iface.qdisc
        return out

    def cpus(self) -> List["CPU"]:
        return [host.cpu for host in self.hosts]

    def reserve_managers(self) -> List["ReserveManager"]:
        return [host.reserve_manager for host in self.hosts]

    def rsvp_agents(self) -> list:
        """Every RSVP agent in the topology (router and host side)."""
        agents = []
        if self.network is not None:
            for router in self.network.routers:
                if router.rsvp_agent is not None:
                    agents.append(router.rsvp_agent)
            for host in self.network.hosts:
                for nic in host.nics.values():
                    if nic.rsvp_agent is not None:
                        agents.append(nic.rsvp_agent)
        return agents

    def add_contract(self, contract: "Contract") -> None:
        self.contracts.append(contract)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<World hosts={len(self.hosts)} "
                f"net={'yes' if self.network else 'no'}>")
