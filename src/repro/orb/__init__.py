"""A miniature CORBA-style ORB with Real-time CORBA extensions.

This is the distribution-middleware layer of the reproduction (the
TAO analogue).  Unlike the wire and the CPUs below it — which are
simulated — the middleware itself is *real*: requests are CDR-encoded
to bytes, framed as GIOP messages with service contexts, demultiplexed
through POAs, and dispatched on prioritized thread pools.

Subpackages
-----------

``cdr``
    Common Data Representation: byte-exact, aligned, big-endian
    marshaling of IDL basic and constructed types.

``giop``
    GIOP 1.2-style Request/Reply messages and service contexts,
    including the ``RTCorbaPriority`` context that propagates CORBA
    priorities end-to-end (paper Fig 2).

``ior``
    Object references with tagged components carrying RT policies and
    protocol properties.

``idl``
    A small IDL compiler producing stub and skeleton classes.

``poa``
    Portable Object Adapter with an active-demultiplexing object map.

``rt``
    Real-time CORBA: priority mappings (native and DiffServ),
    PriorityMappingManager, thread pools with lanes, priority-model
    policies.

``core``
    The ORB itself: acceptors, connection cache, request lifecycle.
"""

from repro.orb.cdr import CdrError, CdrInputStream, CdrOutputStream, OpaquePayload
from repro.orb.core import ConnectionClosed, Orb, OrbError, RequestTimeout
from repro.orb.giop import (
    GiopMessage,
    ReplyStatus,
    SERVICE_ID_RT_CORBA_PRIORITY,
    ServiceContext,
)
from repro.orb.idl import IdlError, compile_idl
from repro.orb.ior import ObjectReference, TaggedComponent
from repro.orb.poa import Poa, PoaError, Servant
from repro.orb.rt import (
    DscpMapping,
    LinearPriorityMapping,
    PriorityBand,
    PriorityMappingManager,
    PriorityModel,
    ThreadPool,
    ThreadPoolLane,
)

__all__ = [
    "CdrError",
    "CdrInputStream",
    "CdrOutputStream",
    "ConnectionClosed",
    "DscpMapping",
    "GiopMessage",
    "IdlError",
    "LinearPriorityMapping",
    "ObjectReference",
    "OpaquePayload",
    "Orb",
    "OrbError",
    "Poa",
    "PoaError",
    "PriorityBand",
    "PriorityMappingManager",
    "PriorityModel",
    "ReplyStatus",
    "RequestTimeout",
    "SERVICE_ID_RT_CORBA_PRIORITY",
    "Servant",
    "ServiceContext",
    "TaggedComponent",
    "ThreadPool",
    "ThreadPoolLane",
    "compile_idl",
]
