"""One QoS vocabulary: a point of the paper's mechanism matrix.

The paper's contribution is a matrix: priority vs reservation, each
on the OS and on the network.  A :class:`QosPolicy` names one point of
it, and :class:`~repro.core.manager.EndToEndQoSManager` is the one
place that applies it:

=================  =======================  =========================
                   priority                 reservation
=================  =======================  =========================
OS                 ``priority`` -> native    ``cpu`` (C, T) +
                   thread priority          ``enforcement``
network            ``priority`` + ``dscp``  ``reservation`` (RSVP
                   -> DiffServ codepoint    :class:`FlowSpec`)
=================  =======================  =========================

``mandatory`` says whether a reservation that is not admitted fails
the request or leaves the stream best-effort.  Combining both columns
is the paper's concluding direction ("using the priority paradigm to
drive who gets reservations and to what degree").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from repro.oskernel.reserve import EnforcementPolicy
from repro.net.intserv import FlowSpec
from repro.orb.rt import MAX_PRIORITY, MIN_PRIORITY


class QosPolicyError(ValueError):
    """Invalid policy parameterization."""


@dataclass(frozen=True)
class QosPolicy:
    """One point of the priority x reservation matrix.

    ``priority`` is the end-to-end CORBA priority; ``None`` turns both
    priority cells off.  ``dscp`` marks packets through the ORB's
    priority mapping manager.  ``cpu`` is a (C, T) reserve admitted
    under ``enforcement``; ``reservation`` an RSVP flowspec.
    """

    priority: Optional[int] = None
    dscp: bool = False
    cpu: Optional[Tuple[float, float]] = None
    enforcement: EnforcementPolicy = EnforcementPolicy.SOFT
    reservation: Optional[FlowSpec] = None
    mandatory: bool = True

    #: Token-bucket depth of a reservation that names only its rate.
    BUCKET_BYTES: ClassVar[int] = 20_000

    def __post_init__(self) -> None:
        if self.priority is not None and not (
                MIN_PRIORITY <= self.priority <= MAX_PRIORITY):
            raise QosPolicyError(
                f"CORBA priority out of range: {self.priority}")
        if self.dscp and self.priority is None:
            raise QosPolicyError("DSCP marking maps a priority; set one")
        if self.cpu is not None:
            compute, period = self.cpu
            if compute <= 0 or period <= 0:
                raise QosPolicyError(
                    "CPU reserve parameters must be positive")
        if self.reservation is not None and not isinstance(
                self.reservation, FlowSpec):
            raise QosPolicyError("reservation must be a FlowSpec")

    @staticmethod
    def flow(rate_bps: float, bucket_bytes: int = BUCKET_BYTES) -> FlowSpec:
        """A network reservation at ``rate_bps`` (``FlowSpec`` rejects a
        rate or bucket that is not positive)."""
        return FlowSpec(rate_bps, bucket_bytes)
