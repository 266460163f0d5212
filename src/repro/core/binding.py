"""The Figure 2 propagation chain's rows.

One CORBA priority lands on the client thread (via the client ORB's
mapping for its OS), travels in the GIOP ``RTCorbaPriority`` service
context, is re-mapped by every server into *its* OS's native range,
and is marked on the wire as a DiffServ codepoint.
:meth:`repro.core.manager.EndToEndQoSManager.describe` returns that
chain as a list of :class:`PropagationHop`.
"""

from __future__ import annotations


class PropagationHop:
    """One row of the Fig 2 chain: where a priority landed."""

    __slots__ = ("host", "os_type", "role", "corba_priority",
                 "native_priority", "dscp")

    def __init__(self, host, os_type, role, corba_priority,
                 native_priority, dscp) -> None:
        self.host = host
        self.os_type = os_type
        self.role = role
        self.corba_priority = corba_priority
        self.native_priority = native_priority
        self.dscp = dscp

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Hop {self.role} {self.host} ({self.os_type.value}): "
            f"corba={self.corba_priority} native={self.native_priority} "
            f"dscp={self.dscp.name if self.dscp else None}>"
        )
