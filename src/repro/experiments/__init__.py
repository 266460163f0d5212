"""Experiment harness: scenario builders for every figure and table.

Each module reproduces one of the paper's evaluation setups:

``actors``
    Application-level building blocks: video senders (GIOP oneway and
    A/V-stream variants), receivers, a distributor, and the ATR image
    processing servant.

``priority_exp``
    The section 5.1 testbed — two video senders, a DiffServ-capable
    router, a cross-traffic generator, CPU load — parameterized into
    the Fig 4 / Fig 5 / Fig 6 arms.

``reservation_net_exp``
    The section 5.2 network-reservation testbed — one video flow under
    a 43.8 Mbps load burst, with {none, partial, full} RSVP
    reservations x {off, on} frame filtering (Fig 7, Table 1).

``reservation_cpu_exp``
    The section 5.2 CPU-reservation testbed — a CORBA ATR server
    running Kirsch/Prewitt/Sobel per image under competing CPU load,
    with and without a TimeSys-style reserve (Table 2).

``testbed``
    The one :class:`~repro.experiments.testbed.Testbed` every scenario
    function builds on: kernel lifecycle, star topology, A/V endpoints,
    stream bring-up, fault installation, invariant-suite install.

``reporting``
    Paper-style text rendering of the results.

``scenario_registry``
    The figure table: every scenario registered and every
    ``results/<name>.txt`` declared once (arms, sweep, timeline, seed,
    renderer).  ``arm`` holds the one base class of the ``*Arm`` types.
"""

from repro.experiments.priority_exp import (
    PriorityArm,
    PriorityExperimentResult,
    run_priority_experiment,
)
from repro.experiments.reservation_cpu_exp import (
    CpuArm,
    CpuExperimentResult,
    run_cpu_reservation_experiment,
)
from repro.experiments.reservation_net_exp import (
    NetworkArm,
    NetworkExperimentResult,
    run_network_reservation_experiment,
)

__all__ = [
    "CpuArm",
    "CpuExperimentResult",
    "NetworkArm",
    "NetworkExperimentResult",
    "PriorityArm",
    "PriorityExperimentResult",
    "run_cpu_reservation_experiment",
    "run_network_reservation_experiment",
    "run_priority_experiment",
]
