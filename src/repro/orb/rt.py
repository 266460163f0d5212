"""Real-time CORBA machinery.

Implements the RT-CORBA features the paper leans on (section 3.1):

* **CORBA priorities** (0..32767) and their mapping onto native OS
  priorities per host OS type — with a ``PriorityMappingManager`` that
  "supports installation of a custom mapping to override the default";
* the paper's extension: a second mapping from CORBA priorities to
  **DiffServ codepoints**, so one end-to-end priority drives both
  thread scheduling and network per-hop behaviour (Fig 2);
* **thread pools with lanes**: pre-created server threads at fixed
  priorities, with bounded request buffering.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence

from repro.sim.kernel import Kernel
from repro.sim.process import Process, Signal
from repro.oskernel.host import Host
from repro.oskernel.priorities import OsType, clamp_native, native_priority_range
from repro.oskernel.thread import SimThread
from repro.net.diffserv import Dscp

#: The RT-CORBA priority range.
MIN_PRIORITY = 0
MAX_PRIORITY = 32767


class PriorityModel:
    """RT-CORBA priority-model policy values."""

    CLIENT_PROPAGATED = "client_propagated"
    SERVER_DECLARED = "server_declared"


# ----------------------------------------------------------------------
# CORBA -> native priority mappings
# ----------------------------------------------------------------------
class LinearPriorityMapping:
    """Default mapping: linear interpolation into the native range."""

    def to_native(self, corba_priority: int, os_type: OsType) -> int:
        corba_priority = max(MIN_PRIORITY, min(MAX_PRIORITY, int(corba_priority)))
        low, high = native_priority_range(os_type)
        span = high - low
        return low + round(corba_priority * span / MAX_PRIORITY)


class TablePriorityMapping:
    """Custom mapping from explicit (corba threshold -> native) bands.

    ``bands`` is a sequence of (min_corba_priority, native_priority)
    pairs; the highest threshold not exceeding the request priority
    wins.  This is how Figure 2's per-OS values (QNX 16, LynxOS 128,
    Solaris 136 for CORBA priority 100) are expressed.
    """

    def __init__(self, bands: Sequence[tuple]) -> None:
        if not bands:
            raise ValueError("at least one band is required")
        self.bands = sorted((int(c), int(n)) for c, n in bands)
        if self.bands[0][0] != MIN_PRIORITY:
            raise ValueError("first band must start at CORBA priority 0")

    def to_native(self, corba_priority: int, os_type: OsType) -> int:
        corba_priority = max(MIN_PRIORITY, min(MAX_PRIORITY, int(corba_priority)))
        native = self.bands[0][1]
        for threshold, value in self.bands:
            if corba_priority >= threshold:
                native = value
            else:
                break
        return clamp_native(os_type, native)


# ----------------------------------------------------------------------
# CORBA -> DSCP mapping (the paper's extension)
# ----------------------------------------------------------------------
class PriorityBand:
    """One (min CORBA priority -> DSCP) network-mapping band."""

    __slots__ = ("min_priority", "dscp")

    def __init__(self, min_priority: int, dscp: Dscp) -> None:
        self.min_priority = int(min_priority)
        self.dscp = dscp

    def __repr__(self) -> str:  # pragma: no cover
        return f"PriorityBand({self.min_priority}, {self.dscp.name})"


class DscpMapping:
    """Maps CORBA priorities onto DiffServ codepoints.

    The default bands put ordinary traffic in best effort, mid
    priorities into Assured Forwarding classes, and the top of the
    range into Expedited Forwarding.
    """

    DEFAULT_BANDS = (
        PriorityBand(0, Dscp.BE),
        PriorityBand(8000, Dscp.AF11),
        PriorityBand(16000, Dscp.AF21),
        PriorityBand(24000, Dscp.AF41),
        PriorityBand(30000, Dscp.EF),
    )

    def __init__(self, bands: Optional[Sequence[PriorityBand]] = None) -> None:
        chosen = list(bands) if bands is not None else list(self.DEFAULT_BANDS)
        if not chosen:
            raise ValueError("at least one band is required")
        self.bands = sorted(chosen, key=lambda band: band.min_priority)
        if self.bands[0].min_priority != MIN_PRIORITY:
            raise ValueError("first band must start at CORBA priority 0")

    def to_dscp(self, corba_priority: int) -> Dscp:
        corba_priority = max(MIN_PRIORITY, min(MAX_PRIORITY, int(corba_priority)))
        result = self.bands[0].dscp
        for band in self.bands:
            if corba_priority >= band.min_priority:
                result = band.dscp
            else:
                break
        return result


class PriorityMappingManager:
    """Holds the active native and network priority mappings for an ORB.

    "The TAO ORB provides a priority-mapping manager that supports
    installation of a custom mapping to override the default mapping."
    """

    def __init__(self) -> None:
        self._native = LinearPriorityMapping()
        self._dscp = DscpMapping()

    # -- installation ------------------------------------------------------
    def install_native_mapping(self, mapping) -> None:
        if not hasattr(mapping, "to_native"):
            raise TypeError("mapping must provide to_native()")
        self._native = mapping

    def install_dscp_mapping(self, mapping: DscpMapping) -> None:
        if not hasattr(mapping, "to_dscp"):
            raise TypeError("mapping must provide to_dscp()")
        self._dscp = mapping

    # -- use ---------------------------------------------------------------
    def to_native(self, corba_priority: int, os_type: OsType) -> int:
        return self._native.to_native(corba_priority, os_type)

    def to_dscp(self, corba_priority: int) -> Dscp:
        return self._dscp.to_dscp(corba_priority)


# ----------------------------------------------------------------------
# Thread pools with lanes
# ----------------------------------------------------------------------
#: A work item: a callable receiving the worker SimThread and returning
#: a generator the worker drives to completion.
WorkItem = Callable[[SimThread], Generator]


class ThreadPoolLane:
    """One lane: a CORBA priority plus a set of pre-created threads."""

    def __init__(
        self,
        kernel: Kernel,
        host: Host,
        corba_priority: int,
        static_threads: int,
        native_priority: int,
        name: str,
        max_buffered_requests: int = 1000,
    ) -> None:
        if static_threads <= 0:
            raise ValueError("a lane needs at least one thread")
        self.kernel = kernel
        self.host = host
        self.corba_priority = int(corba_priority)
        self.native_priority = int(native_priority)
        self.name = name
        self.max_buffered_requests = int(max_buffered_requests)
        self._queue: List[WorkItem] = []
        self._work_available = Signal(kernel, name=f"{name}.work")
        self.threads: List[SimThread] = []
        self.requests_processed = 0
        self.requests_rejected = 0
        for index in range(static_threads):
            thread = host.spawn_thread(
                f"{name}.worker{index}", priority=native_priority
            )
            self.threads.append(thread)
            Process(kernel, self._worker(thread), name=f"{name}.worker{index}")

    def enqueue(self, item: WorkItem) -> bool:
        """Queue a work item; False if the buffer bound rejects it."""
        if len(self._queue) >= self.max_buffered_requests:
            self.requests_rejected += 1
            return False
        self._queue.append(item)
        self._work_available.fire()
        return True

    def _worker(self, thread: SimThread) -> Generator:
        while True:
            while not self._queue:
                yield self._work_available
            item = self._queue.pop(0)
            try:
                yield from item(thread)
            finally:
                # A misbehaving servant must not change the lane's
                # baseline priority for subsequent requests.
                thread.set_priority(self.native_priority)
                self.requests_processed += 1


class ThreadPool:
    """An RT-CORBA thread pool: one or more priority lanes.

    Lane selection follows the spec: a request is served by the lane
    with the highest priority not exceeding the request's priority,
    falling back to the lowest lane.
    """

    def __init__(
        self,
        kernel: Kernel,
        host: Host,
        mapping: PriorityMappingManager,
        lanes: Sequence[tuple],
        name: str = "pool",
        max_buffered_requests: int = 1000,
    ) -> None:
        """``lanes`` is a sequence of (corba_priority, static_threads)."""
        if not lanes:
            raise ValueError("a thread pool needs at least one lane")
        self.kernel = kernel
        self.host = host
        self.name = name
        self.lanes: List[ThreadPoolLane] = []
        for corba_priority, static_threads in lanes:
            native = mapping.to_native(corba_priority, host.os_type)
            self.lanes.append(
                ThreadPoolLane(
                    kernel,
                    host,
                    corba_priority,
                    static_threads,
                    native,
                    name=f"{host.name}.{name}.lane{corba_priority}",
                    max_buffered_requests=max_buffered_requests,
                )
            )
        self.lanes.sort(key=lambda lane: lane.corba_priority)

    def lane_for(self, corba_priority: int) -> ThreadPoolLane:
        chosen = self.lanes[0]
        for lane in self.lanes:
            if lane.corba_priority <= corba_priority:
                chosen = lane
            else:
                break
        return chosen

    def dispatch(self, corba_priority: int, item: WorkItem) -> bool:
        """Queue ``item`` on the lane serving ``corba_priority``."""
        return self.lane_for(corba_priority).enqueue(item)
