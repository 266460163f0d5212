"""Hosts: the unit tying together a CPU, an OS type, and network ports.

A :class:`Host` is what experiment topologies are built from.  The
network substrate attaches NICs to hosts (see
:mod:`repro.net.topology`); the ORB spawns threads on the host's CPU.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.sim.kernel import Kernel
from repro.oskernel.cpu import CPU
from repro.oskernel.priorities import OsType, native_priority_range
from repro.oskernel.reserve import ReserveManager
from repro.oskernel.thread import SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import Nic


class Host:
    """A simulated endsystem.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    name:
        Unique host name (used for addressing in the network substrate).
    os_type:
        Determines the native priority range RT-CORBA maps into.
    cpu_speed:
        Relative CPU speed (1.0 = the reference 1 GHz testbed machine).
    reserve_bound:
        Utilization bound for the host's reserve manager.
    """

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        os_type: OsType = OsType.LINUX,
        cpu_speed: float = 1.0,
        reserve_bound: float = 0.9,
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.os_type = os_type
        self.cpu = CPU(kernel, name=f"{name}.cpu", speed=cpu_speed)
        self.reserve_manager = ReserveManager(
            kernel, self.cpu, utilization_bound=reserve_bound
        )
        self._nics: Dict[str, "Nic"] = {}
        self._threads: Dict[str, SimThread] = {}

    # ------------------------------------------------------------------
    # Threads
    # ------------------------------------------------------------------
    def spawn_thread(self, name: str, priority: Optional[int] = None) -> SimThread:
        """Create a thread on this host's CPU.

        ``priority`` defaults to the bottom of the native RT range.
        """
        if priority is None:
            priority = native_priority_range(self.os_type)[0]
        thread = SimThread(self.cpu, priority, name=f"{self.name}.{name}")
        self._threads[name] = thread
        return thread

    def thread(self, name: str) -> SimThread:
        return self._threads[name]

    @property
    def priority_range(self) -> tuple:
        return native_priority_range(self.os_type)

    # ------------------------------------------------------------------
    # Network attachment (populated by repro.net.topology)
    # ------------------------------------------------------------------
    def attach_nic(self, nic: "Nic") -> None:
        self._nics[nic.ifname] = nic

    @property
    def nics(self) -> Dict[str, "Nic"]:
        return dict(self._nics)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name!r} os={self.os_type.value}>"
