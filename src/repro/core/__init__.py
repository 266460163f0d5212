"""The paper's primary contribution: integrated end-to-end QoS control.

Everything below this package exists in layered isolation — priorities
in the OS substrate, DSCPs and reservations in the network, CORBA
priorities in the ORB, contracts in QuO.  This package couples them,
as the paper does, through one vocabulary and one applier:

``policies``
    :class:`QosPolicy`, one point of the paper's priority x
    reservation matrix (OS and network): a CORBA priority, DSCP
    marking, a CPU reserve and an RSVP reservation.

``manager``
    :class:`EndToEndQoSManager`, the only place a mechanism is applied:
    thread and stub priorities, DSCPs, CPU reserves, A/V stream
    reservations, the section 6 priority-driven reserve allocation and
    Fig 2's propagation chain (rows: ``binding.PropagationHop``).

``adaptation``
    The contract-driven frame-filtering qosket: the application-level
    adaptation the paper couples with reservations in Fig 7/Table 1;
    and its pub-sub twin, the reader-side pacing qosket.

``metrics``
    Latency/jitter/delivery recorders producing exactly the statistics
    the paper's tables report.
"""

from repro.core.adaptation import FrameFilteringQosket
from repro.core.binding import PropagationHop
from repro.core.manager import EndToEndQoSManager
from repro.core.metrics import (
    DeliveryRecorder,
    LatencyRecorder,
    TimeSeries,
)
from repro.core.policies import QosPolicy, QosPolicyError

__all__ = [
    "DeliveryRecorder",
    "EndToEndQoSManager",
    "FrameFilteringQosket",
    "LatencyRecorder",
    "PropagationHop",
    "QosPolicy",
    "QosPolicyError",
    "TimeSeries",
]
