"""GIOP message framing.

Requests and replies are encoded as real byte strings: a 12-byte GIOP
header (magic, version, message type, body length) followed by a
CDR-encoded header and body.  Service contexts ride in the request
header; the one that matters for this paper is ``RTCorbaPriority``,
which carries the CORBA priority end-to-end so each hop can map it to
native thread priorities and DSCPs (Fig 2).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Any, List, Optional, Tuple

from repro.orb.cdr import (
    CdrError,
    CdrInputStream,
    CdrOutputStream,
    OpaquePayload,
)

MAGIC = b"GIOP"
VERSION = (1, 2)

#: OMG-assigned service context id for RT-CORBA priority propagation.
SERVICE_ID_RT_CORBA_PRIORITY = 0x10


class MsgType(enum.IntEnum):
    REQUEST = 0
    REPLY = 1


class ReplyStatus(enum.IntEnum):
    NO_EXCEPTION = 0
    USER_EXCEPTION = 1
    SYSTEM_EXCEPTION = 2
    LOCATION_FORWARD = 3


# Read once per message: module globals, not attribute loads on the
# classes, which ``EnumMeta.__getattr__`` slows (CPython 3.10 / 3.11).
REQUEST, REPLY = MsgType.REQUEST, MsgType.REPLY
NO_EXCEPTION, SYSTEM_EXCEPTION = (ReplyStatus.NO_EXCEPTION,
                                  ReplyStatus.SYSTEM_EXCEPTION)


@lru_cache(maxsize=1024)
def _rt_priority_bytes(priority: int) -> bytes:
    """CDR encoding of one RTCorbaPriority value.

    Every prioritized request carries this context; the priority
    vocabulary per run is tiny, so the two-byte encoding is memoized.
    """
    out = CdrOutputStream()
    out.write_short(priority)
    return out.getvalue()


@lru_cache(maxsize=8)
def _header_prelude(msg_type: int) -> bytes:
    """The constant first 8 GIOP header bytes for one message type."""
    out = CdrOutputStream()
    for byte in MAGIC:
        out.write_octet(byte)
    out.write_octet(VERSION[0])
    out.write_octet(VERSION[1])
    out.write_octet(0)  # flags: big-endian
    out.write_octet(msg_type)
    return out.getvalue()


class ServiceContext:
    """One (id, data) service context entry."""

    __slots__ = ("context_id", "data")

    def __init__(self, context_id: int, data: bytes) -> None:
        self.context_id = int(context_id)
        self.data = data

    @classmethod
    def rt_priority(cls, priority: int) -> "ServiceContext":
        """Build the RTCorbaPriority context for a CORBA priority."""
        return cls(SERVICE_ID_RT_CORBA_PRIORITY,
                   _rt_priority_bytes(priority))

    def read_rt_priority(self) -> int:
        if self.context_id != SERVICE_ID_RT_CORBA_PRIORITY:
            raise CdrError("not an RTCorbaPriority context")
        return CdrInputStream(self.data).read_short()


class GiopMessage:
    """A decoded GIOP request or reply.

    Attributes are populated according to ``msg_type``; ``body`` is the
    raw CDR-encoded argument/result bytes and ``opaques`` the sidecar
    of :class:`~repro.orb.cdr.OpaquePayload` objects referenced by it.
    """

    def __init__(
        self,
        msg_type: MsgType,
        request_id: int,
        body: bytes = b"",
        opaques: Optional[List[OpaquePayload]] = None,
        # request fields
        object_key: str = "",
        operation: str = "",
        response_expected: bool = True,
        service_contexts: Optional[List[ServiceContext]] = None,
        # reply fields
        reply_status: ReplyStatus = ReplyStatus.NO_EXCEPTION,
    ) -> None:
        self.msg_type = msg_type
        self.request_id = int(request_id)
        self.body = body
        self.opaques = opaques or []
        self.object_key = object_key
        self.operation = operation
        self.response_expected = response_expected
        self.service_contexts = service_contexts or []
        self.reply_status = reply_status

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def find_context(self, context_id: int) -> Optional[ServiceContext]:
        for context in self.service_contexts:
            if context.context_id == context_id:
                return context
        return None

    def rt_priority(self) -> Optional[int]:
        """Extract the propagated CORBA priority, if present."""
        context = self.find_context(SERVICE_ID_RT_CORBA_PRIORITY)
        return context.read_rt_priority() if context else None

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self) -> Tuple[bytes, List[OpaquePayload]]:
        """Serialize to (bytes, opaque sidecar)."""
        out = CdrOutputStream()
        # GIOP header: the first 8 bytes are constant per message type
        # (memoized — requests marshal one per video frame).
        out._append(_header_prelude(int(self.msg_type)))
        out.write_ulong(0)  # body length placeholder (unused: framed transport)
        # Message header
        out.write_ulong(self.request_id)
        if self.msg_type is REQUEST:
            out.write_boolean(self.response_expected)
            out.write_string(self.object_key)
            out.write_string(self.operation)
            out.write_ulong(len(self.service_contexts))
            for context in self.service_contexts:
                out.write_ulong(context.context_id)
                out.write_octets(context.data)
        else:
            out.write_ulong(int(self.reply_status))
        # Body
        out.write_octets(self.body)
        out.write_ulong(len(self.opaques))
        return out.getvalue(), list(self.opaques)

    @property
    def wire_size(self) -> int:
        """Total simulated bytes on the wire (header+body+opaques)."""
        encoded, opaques = self.encode()
        return len(encoded) + sum(o.nbytes for o in opaques)

    @classmethod
    def decode(
        cls, data: bytes, opaques: Optional[List[OpaquePayload]] = None
    ) -> "GiopMessage":
        """Parse bytes produced by :meth:`encode`."""
        inp = CdrInputStream(data)
        magic = bytes(inp.read_octet() for _ in range(4))
        if magic != MAGIC:
            raise CdrError(f"bad GIOP magic: {magic!r}")
        major, minor = inp.read_octet(), inp.read_octet()
        if (major, minor) != VERSION:
            raise CdrError(f"unsupported GIOP version {major}.{minor}")
        inp.read_octet()  # flags
        msg_type = MsgType(inp.read_octet())
        inp.read_ulong()  # body length placeholder
        request_id = inp.read_ulong()
        if msg_type is REQUEST:
            response_expected = inp.read_boolean()
            object_key = inp.read_string()
            operation = inp.read_string()
            contexts = []
            for _ in range(inp.read_ulong()):
                context_id = inp.read_ulong()
                context_data = inp.read_octets()
                contexts.append(ServiceContext(context_id, context_data))
            body = inp.read_octets()
            opaque_count = inp.read_ulong()
            sidecar = list(opaques or [])
            if opaque_count != len(sidecar):
                raise CdrError(
                    f"opaque sidecar mismatch: header says {opaque_count}, "
                    f"got {len(sidecar)}"
                )
            return cls(
                msg_type,
                request_id,
                body=body,
                opaques=sidecar,
                object_key=object_key,
                operation=operation,
                response_expected=response_expected,
                service_contexts=contexts,
            )
        reply_status = ReplyStatus(inp.read_ulong())
        body = inp.read_octets()
        opaque_count = inp.read_ulong()
        sidecar = list(opaques or [])
        if opaque_count != len(sidecar):
            raise CdrError("opaque sidecar mismatch on reply")
        return cls(
            msg_type,
            request_id,
            body=body,
            opaques=sidecar,
            reply_status=reply_status,
        )

    @classmethod
    def request(
        cls,
        request_id: int,
        object_key: str,
        operation: str,
        body: bytes,
        opaques: Optional[List[OpaquePayload]] = None,
        response_expected: bool = True,
        priority: Optional[int] = None,
    ) -> "GiopMessage":
        contexts = []
        if priority is not None:
            contexts.append(ServiceContext.rt_priority(priority))
        return cls(
            REQUEST,
            request_id,
            body=body,
            opaques=opaques,
            object_key=object_key,
            operation=operation,
            response_expected=response_expected,
            service_contexts=contexts,
        )

    @classmethod
    def reply(
        cls,
        request_id: int,
        body: bytes,
        opaques: Optional[List[OpaquePayload]] = None,
        reply_status: ReplyStatus = ReplyStatus.NO_EXCEPTION,
    ) -> "GiopMessage":
        return cls(
            REPLY,
            request_id,
            body=body,
            opaques=opaques,
            reply_status=reply_status,
        )

    def __repr__(self) -> str:  # pragma: no cover
        if self.msg_type is MsgType.REQUEST:
            return (
                f"<GIOP Request {self.request_id} {self.object_key}."
                f"{self.operation}>"
            )
        return f"<GIOP Reply {self.request_id} {self.reply_status.name}>"
