"""Interoperable object references.

An :class:`ObjectReference` names a remote object: endpoint (host,
port), object key within its POA, and a list of tagged components.
Two components matter for the paper:

* the **priority model** component, embedded by a QoS-enabled object
  adapter so "clients who invoke operations on such object references
  honor the policies required by the target object" (section 3.1);
* **protocol properties**, carrying the server-requested DSCP
  (section 3.2's extension of ORB protocol properties).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.net.diffserv import Dscp


class ComponentTag(enum.IntEnum):
    """Tagged component ids (subset; values mirror common OMG tags)."""

    PRIORITY_MODEL = 0x29
    PROTOCOL_PROPERTIES = 0x2A


class PriorityModelValue(enum.IntEnum):
    CLIENT_PROPAGATED = 0
    SERVER_DECLARED = 1


# Read once per invocation: module globals, not attribute loads on the
# classes, which ``EnumMeta.__getattr__`` slows (CPython 3.10 / 3.11).
PRIORITY_MODEL, PROTOCOL_PROPERTIES = (ComponentTag.PRIORITY_MODEL,
                                       ComponentTag.PROTOCOL_PROPERTIES)
CLIENT_PROPAGATED, SERVER_DECLARED = (PriorityModelValue.CLIENT_PROPAGATED,
                                      PriorityModelValue.SERVER_DECLARED)


class TaggedComponent:
    """One (tag, data) component in an IOR profile."""

    __slots__ = ("tag", "data")

    def __init__(self, tag: int, data: Dict) -> None:
        self.tag = int(tag)
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover
        return f"TaggedComponent(0x{self.tag:x}, {self.data!r})"


class ObjectReference:
    """A portable reference to one servant.

    Instances are created by :meth:`repro.orb.poa.Poa.activate_object`
    (server side) and can be passed to any client ORB on any host.
    """

    def __init__(
        self,
        type_id: str,
        host: str,
        port: int,
        object_key: str,
        components: Optional[List[TaggedComponent]] = None,
    ) -> None:
        self.type_id = type_id
        self.host = host
        self.port = int(port)
        self.object_key = object_key
        self.components = components or []

    # ------------------------------------------------------------------
    # Component helpers
    # ------------------------------------------------------------------
    def find_component(self, tag: int) -> Optional[TaggedComponent]:
        for component in self.components:
            if component.tag == tag:
                return component
        return None

    def priority_model(self) -> PriorityModelValue:
        """The server's declared priority model (default CLIENT_PROPAGATED)."""
        component = self.find_component(PRIORITY_MODEL)
        if component is None:
            return CLIENT_PROPAGATED
        return PriorityModelValue(component.data["model"])

    def server_priority(self) -> Optional[int]:
        """CORBA priority for SERVER_DECLARED objects, else None."""
        component = self.find_component(PRIORITY_MODEL)
        if component is None:
            return None
        return component.data.get("priority")

    def protocol_dscp(self) -> Optional[Dscp]:
        """Server-requested DSCP from protocol properties, if any."""
        component = self.find_component(PROTOCOL_PROPERTIES)
        if component is None:
            return None
        value = component.data.get("dscp")
        return None if value is None else Dscp(value)

    # ------------------------------------------------------------------
    def corbaloc(self) -> str:
        """Human-readable locator string."""
        return f"corbaloc:sim:{self.host}:{self.port}/{self.object_key}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ObjectReference {self.type_id} {self.corbaloc()}>"
