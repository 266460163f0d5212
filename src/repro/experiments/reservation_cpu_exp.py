"""Section 5.2: CPU-reservation experiments (Table 2).

"We constructed an experiment where image frame data were transmitted
from a client program to a C++ CORBA middleware-based image processing
server ... The receiver processed the image by invoking the Kirsch,
Prewitt, and Sobel edge detection algorithms in sequence.  We executed
the algorithms without load, with competing CPU load, and with
competing CPU load and a CPU reservation, and recorded the time that
each algorithm took to process the image."

The three arms:

* ``no_load`` — control run.
* ``load`` — a bursty ("variable and not sustained") CPU load at a
  priority above the ATR worker thread.
* ``load_reserve`` — the same load, plus a (C, T) CPU reserve on the
  ATR worker, admitted through the host's resource-kernel manager.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.process import Process
from repro.oskernel.loadgen import CpuLoadGenerator
from repro.oskernel.reserve import EnforcementPolicy
from repro.orb.cdr import OpaquePayload
from repro.orb.core import Orb, raise_if_error
from repro.orb.rt import ThreadPool
from repro.obs.breakdown import SeriesStats
from repro.core.policies import QosPolicy
from repro.experiments.actors import ATR, AtrServant
from repro.experiments.arm import Arm, ArmResult
from repro.experiments.testbed import Testbed

#: The paper's image: 400x250 RGB PPM, 300,060 bytes.
IMAGE_BYTES = 300_060
#: The competing load: "variable and not sustained" bursts.
LOAD_DUTY = 0.25
LOAD_BURST_MEAN = 0.08
#: The ATR worker's (C, T) reserve.
RESERVE_COMPUTE = 0.45
RESERVE_PERIOD = 0.5


@dataclass
class CpuArm(Arm):
    """One Table 2 condition."""

    name: str
    cpu_load: bool
    reservation: bool

    @classmethod
    def no_load(cls) -> "CpuArm":
        return cls("no-load", cpu_load=False, reservation=False)

    @classmethod
    def load(cls) -> "CpuArm":
        return cls("load", cpu_load=True, reservation=False)

    @classmethod
    def load_reserve(cls) -> "CpuArm":
        return cls("load+reserve", cpu_load=True, reservation=True)

    def policy(self) -> QosPolicy:
        """The ATR worker's point: a SOFT (C, T) reserve, or nothing."""
        if not self.reservation:
            return QosPolicy()
        return QosPolicy(cpu=(RESERVE_COMPUTE, RESERVE_PERIOD),
                         enforcement=EnforcementPolicy.SOFT)


def all_arms() -> list:
    return [CpuArm.no_load(), CpuArm.load(), CpuArm.load_reserve()]


#: The ATR worker's CPU reserve as the run left it (plain data).
ReserveFacts = namedtuple("ReserveFacts", [
    "compute", "period", "policy", "replenishments", "consumed_total",
])


class CpuExperimentResult(ArmResult):
    """Per-algorithm execution-time statistics for one arm."""

    def __init__(self, arm: CpuArm, duration: float) -> None:
        super().__init__(arm, duration)
        self.images_processed = 0
        self.algorithm_stats: Dict[str, SeriesStats] = {}
        #: The worker's reserve at the end of the run; ``None`` unreserved.
        self.reserve: Optional[ReserveFacts] = None

    def stats(self, algorithm: str) -> SeriesStats:
        return self.algorithm_stats[algorithm]


def run_cpu_reservation_experiment(
    arm: CpuArm,
    duration: float = 120.0,
    seed: int = 1,
    fault_plan=None,
    checks=None,
    tracer=None,
) -> CpuExperimentResult:
    """Build the Table 2 testbed and run one arm.

    The client streams images back-to-back (next image as soon as the
    previous reply returns) for ``duration`` simulated seconds.
    """
    bed = Testbed(seed, checks, tracer)
    kernel, rng = bed.kernel, bed.rng

    net = bed.build_network(100e6)
    client_host = bed.host("client")
    server_host = bed.host("atr-server")
    net.link(client_host, server_host)
    net.compute_routes()
    bed.watch()

    client_orb = Orb(kernel, client_host, net)
    server_orb = Orb(kernel, server_host, net)

    pool = ThreadPool(
        kernel, server_host, server_orb.mapping_manager,
        lanes=[(0, 1)], name="atr-pool",
    )
    poa = server_orb.create_poa("atr", thread_pool=pool)
    servant = AtrServant(kernel)
    objref = poa.activate_object(servant, oid="atr")
    worker_thread = pool.lanes[0].threads[0]

    result = CpuExperimentResult(arm, duration)

    if arm.cpu_load:
        load = CpuLoadGenerator(
            kernel,
            server_host,
            priority=60,  # above the ATR worker: genuine interference
            duty_cycle=LOAD_DUTY,
            burst_mean=LOAD_BURST_MEAN,
            rng=rng.stream("cpuload"),
        )
        load.start()
    reserve = bed.qos.apply(arm.policy(), server_host, thread=worker_thread)

    client_thread = client_host.spawn_thread("imagesource", priority=10)
    stub = ATR.stub_class(client_orb, objref, thread=client_thread)

    def client():
        index = 0
        while kernel.now < duration:
            image = OpaquePayload({"image": index % 4}, nbytes=IMAGE_BYTES)
            reply = yield stub.detect(image)
            raise_if_error(reply)
            index += 1

    Process(kernel, client(), name="image-client")
    bed.inject(fault_plan)
    result.events_executed = bed.run(until=duration)

    result.images_processed = servant.images_processed
    if reserve is not None:
        result.reserve = ReserveFacts(
            reserve.compute, reserve.period, reserve.policy,
            reserve.replenishments, reserve.consumed_total)
    for algorithm, recorder in servant.timings.items():
        result.algorithm_stats[algorithm] = recorder.stats()
    return result
