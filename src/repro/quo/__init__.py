"""Quality Objects (QuO): the QoS-adaptive middleware layer.

QuO (paper section 2.1) lets an application specify "(1) its QoS
requirements, (2) the system elements that must be monitored and
controlled ... and (3) the behavior for adapting to QoS variations
that occur at run-time."  Its three component kinds map one-to-one
onto this package:

``contract``
    *Contracts* encode operating regions and the actions to perform
    when the region changes.

``syscond``
    *System condition objects* are "wrapper facades that provide
    consistent interfaces to infrastructure mechanisms, services, and
    managers" — here a stream's windowed loss rate, the faults the
    injector reports active, and values an application or manager
    sets.

``delegate``
    *Delegates* are in-band proxies "inserted into the path of object
    interactions transparently" that pick a behavior per call based on
    the contract's current region.

``qosket``
    *Qoskets* package contracts + sysconds + behaviors for reuse
    [Qosket:02].
"""

from repro.quo.contract import Contract, Region, Transition
from repro.quo.delegate import Delegate
from repro.quo.qosket import Qosket
from repro.quo.remote import (
    SyscondMirrorServant,
    SyscondPublisher,
    start_mirror,
)
from repro.quo.syscond import (
    FaultReporterSC,
    LossRateSC,
    SystemCondition,
    ValueSC,
)

__all__ = [
    "Contract",
    "Delegate",
    "FaultReporterSC",
    "LossRateSC",
    "Qosket",
    "Region",
    "SyscondMirrorServant",
    "SyscondPublisher",
    "SystemCondition",
    "Transition",
    "ValueSC",
    "start_mirror",
]
