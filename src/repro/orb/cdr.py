"""Common Data Representation (CDR) marshaling.

Byte-exact big-endian encoding with CORBA alignment rules: every
primitive is aligned to its natural size relative to the start of the
stream.  This is the real thing, not a simulation — GIOP messages in
this ORB are genuine byte strings, and message sizes on the simulated
wire are the sizes these encoders produce.

One extension beyond standard CDR: :class:`OpaquePayload`, a payload
that carries an arbitrary Python object plus a declared wire size.  It
models application data whose content is irrelevant to the experiments
(video frame pixels) without spending host RAM on fake bytes; the
declared size is what the simulated network charges for.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional

# Encoded-string memo: operation names, object keys and type ids are
# drawn from a small fixed vocabulary but marshaled on every request,
# so the UTF-8 encode + NUL append is cached.  Bounded so adversarial
# or unbounded string sets (e.g. per-frame payload text) cannot grow
# the cache without limit.
_STRING_MEMO: Dict[str, bytes] = {}
_STRING_MEMO_MAX = 4096


class CdrError(ValueError):
    """Raised on malformed CDR data or unsupported types."""


class OpaquePayload:
    """An application object with a declared marshaled size.

    >>> frame = OpaquePayload({"frame": 1}, nbytes=12_000)
    >>> frame.nbytes
    12000
    """

    __slots__ = ("value", "nbytes")

    def __init__(self, value: Any, nbytes: int) -> None:
        if nbytes < 0:
            raise CdrError(f"negative opaque size: {nbytes}")
        self.value = value
        self.nbytes = int(nbytes)

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, OpaquePayload)
            and other.value == self.value
            and other.nbytes == self.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"OpaquePayload({self.value!r}, nbytes={self.nbytes})"


class CdrOutputStream:
    """Encoder with CORBA alignment semantics."""

    def __init__(self) -> None:
        self._chunks: List[bytes] = []
        self._length = 0
        # Opaque payload sidecar: (offset index, payload).
        self._opaques: List[OpaquePayload] = []

    # -- plumbing --------------------------------------------------------
    def _append(self, data: bytes) -> None:
        self._chunks.append(data)
        self._length += len(data)

    def align(self, boundary: int) -> None:
        remainder = self._length % boundary
        if remainder:
            self._append(b"\x00" * (boundary - remainder))

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    @property
    def opaques(self) -> List[OpaquePayload]:
        return list(self._opaques)

    # -- primitives ------------------------------------------------------
    def write_octet(self, value: int) -> None:
        self._append(struct.pack(">B", value & 0xFF))

    def write_boolean(self, value: bool) -> None:
        self.write_octet(1 if value else 0)

    def write_short(self, value: int) -> None:
        self.align(2)
        self._append(struct.pack(">h", value))

    def write_long(self, value: int) -> None:
        self.align(4)
        self._append(struct.pack(">i", value))

    def write_ulong(self, value: int) -> None:
        self.align(4)
        self._append(struct.pack(">I", value))

    def write_double(self, value: float) -> None:
        self.align(8)
        self._append(struct.pack(">d", value))

    def write_string(self, value: str) -> None:
        encoded = _STRING_MEMO.get(value)
        if encoded is None:
            encoded = value.encode("utf-8") + b"\x00"
            if len(_STRING_MEMO) < _STRING_MEMO_MAX:
                _STRING_MEMO[value] = encoded
        self.write_ulong(len(encoded))
        self._append(encoded)

    def write_octets(self, value: bytes) -> None:
        """Sequence<octet>: length-prefixed raw bytes."""
        self.write_ulong(len(value))
        self._append(value)

    def write_opaque(self, payload: OpaquePayload) -> None:
        """Write an opaque payload: the object rides a sidecar, only a
        marker and the declared size hit the byte stream."""
        self.write_ulong(payload.nbytes)
        self.write_ulong(len(self._opaques))
        self._opaques.append(payload)


class CdrInputStream:
    """Decoder matching :class:`CdrOutputStream`."""

    def __init__(self, data: bytes, opaques: Optional[List[OpaquePayload]] = None) -> None:
        self._data = data
        self._offset = 0
        self._opaques = opaques or []

    # -- plumbing --------------------------------------------------------
    def align(self, boundary: int) -> None:
        remainder = self._offset % boundary
        if remainder:
            self._offset += boundary - remainder

    def _take(self, count: int) -> bytes:
        if self._offset + count > len(self._data):
            raise CdrError(
                f"truncated CDR stream: need {count} bytes at offset "
                f"{self._offset}, have {len(self._data)}"
            )
        chunk = self._data[self._offset:self._offset + count]
        self._offset += count
        return chunk

    # -- primitives ------------------------------------------------------
    def read_octet(self) -> int:
        return struct.unpack(">B", self._take(1))[0]

    def read_boolean(self) -> bool:
        return self.read_octet() != 0

    def read_short(self) -> int:
        self.align(2)
        return struct.unpack(">h", self._take(2))[0]

    def read_long(self) -> int:
        self.align(4)
        return struct.unpack(">i", self._take(4))[0]

    def read_ulong(self) -> int:
        self.align(4)
        return struct.unpack(">I", self._take(4))[0]

    def read_double(self) -> float:
        self.align(8)
        return struct.unpack(">d", self._take(8))[0]

    def read_string(self) -> str:
        length = self.read_ulong()
        raw = self._take(length)
        if not raw.endswith(b"\x00"):
            raise CdrError("string not NUL-terminated")
        return raw[:-1].decode("utf-8")

    def read_octets(self) -> bytes:
        length = self.read_ulong()
        return self._take(length)

    def read_opaque(self) -> OpaquePayload:
        nbytes = self.read_ulong()
        index = self.read_ulong()
        if index >= len(self._opaques):
            raise CdrError(f"opaque sidecar index {index} out of range")
        payload = self._opaques[index]
        if payload.nbytes != nbytes:
            raise CdrError("opaque size mismatch")
        return payload


# ----------------------------------------------------------------------
# Type-directed codecs used by the IDL compiler: the one list of the IDL
# types this ORB marshals
# ----------------------------------------------------------------------
_WRITERS: dict = {
    "void": lambda out, v: None,
    "boolean": CdrOutputStream.write_boolean,
    "octet": CdrOutputStream.write_octet,
    "short": CdrOutputStream.write_short,
    "long": CdrOutputStream.write_long,
    "unsigned long": CdrOutputStream.write_ulong,
    "double": CdrOutputStream.write_double,
    "string": CdrOutputStream.write_string,
    "opaque": CdrOutputStream.write_opaque,
}

_READERS: dict = {
    "void": lambda inp: None,
    "boolean": CdrInputStream.read_boolean,
    "octet": CdrInputStream.read_octet,
    "short": CdrInputStream.read_short,
    "long": CdrInputStream.read_long,
    "unsigned long": CdrInputStream.read_ulong,
    "double": CdrInputStream.read_double,
    "string": CdrInputStream.read_string,
    "opaque": CdrInputStream.read_opaque,
}


#: Every IDL type name the codecs know; the IDL compiler accepts these
#: and nothing else.
IDL_TYPES = frozenset(_WRITERS)


def writer_for(idl_type: str) -> Callable[[CdrOutputStream, Any], None]:
    """Return the encoder function for an IDL type."""
    try:
        return _WRITERS[idl_type]
    except KeyError:
        raise CdrError(f"unsupported IDL type: {idl_type!r}") from None


def reader_for(idl_type: str) -> Callable[[CdrInputStream], Any]:
    """Return the decoder function for an IDL type."""
    try:
        return _READERS[idl_type]
    except KeyError:
        raise CdrError(f"unsupported IDL type: {idl_type!r}") from None
