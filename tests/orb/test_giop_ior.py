"""Tests for GIOP framing, service contexts, and object references."""

import pytest

from repro.net import Dscp
from repro.orb import (
    GiopMessage,
    ObjectReference,
    ReplyStatus,
    SERVICE_ID_RT_CORBA_PRIORITY,
    ServiceContext,
    TaggedComponent,
)
from repro.orb.cdr import CdrError, OpaquePayload
from repro.orb.giop import MsgType
from repro.orb.ior import ComponentTag, PriorityModelValue


def test_request_roundtrip():
    message = GiopMessage.request(
        request_id=42,
        object_key="poa/oid1",
        operation="process",
        body=b"\x01\x02\x03",
        response_expected=True,
        priority=100,
    )
    encoded, opaques = message.encode()
    assert encoded.startswith(b"GIOP")
    decoded = GiopMessage.decode(encoded, opaques)
    assert decoded.msg_type is MsgType.REQUEST
    assert decoded.request_id == 42
    assert decoded.object_key == "poa/oid1"
    assert decoded.operation == "process"
    assert decoded.response_expected
    assert decoded.body == b"\x01\x02\x03"
    assert decoded.rt_priority() == 100


def test_request_without_priority_context():
    message = GiopMessage.request(1, "k", "op", b"")
    decoded = GiopMessage.decode(*message.encode())
    assert decoded.rt_priority() is None
    assert decoded.service_contexts == []


def test_reply_roundtrip():
    message = GiopMessage.reply(
        7, b"result", reply_status=ReplyStatus.NO_EXCEPTION
    )
    decoded = GiopMessage.decode(*message.encode())
    assert decoded.msg_type is MsgType.REPLY
    assert decoded.request_id == 7
    assert decoded.reply_status == ReplyStatus.NO_EXCEPTION
    assert decoded.body == b"result"


def test_system_exception_reply():
    message = GiopMessage.reply(
        9, b"", reply_status=ReplyStatus.SYSTEM_EXCEPTION
    )
    decoded = GiopMessage.decode(*message.encode())
    assert decoded.reply_status == ReplyStatus.SYSTEM_EXCEPTION


def test_opaque_payloads_survive_roundtrip():
    frame = OpaquePayload({"n": 1}, nbytes=5000)
    message = GiopMessage.request(3, "k", "push", b"", opaques=[frame])
    encoded, sidecar = message.encode()
    decoded = GiopMessage.decode(encoded, sidecar)
    assert decoded.opaques == [frame]
    assert message.wire_size >= 5000


def test_sidecar_mismatch_rejected():
    frame = OpaquePayload("x", nbytes=100)
    message = GiopMessage.request(3, "k", "push", b"", opaques=[frame])
    encoded, _ = message.encode()
    with pytest.raises(CdrError):
        GiopMessage.decode(encoded, [])


def test_bad_magic_rejected():
    with pytest.raises(CdrError):
        GiopMessage.decode(b"NOPE" + b"\x00" * 20)


def test_service_context_priority_encoding():
    context = ServiceContext.rt_priority(12345)
    assert context.context_id == SERVICE_ID_RT_CORBA_PRIORITY
    assert context.read_rt_priority() == 12345


def test_wire_size_reflects_operation_and_key_length():
    small = GiopMessage.request(1, "k", "op", b"").wire_size
    large = GiopMessage.request(1, "k" * 100, "op" * 50, b"").wire_size
    assert large > small


# ----------------------------------------------------------------------
# Object references
# ----------------------------------------------------------------------
def test_objref_defaults_to_client_propagated():
    ref = ObjectReference("IDL:X:1.0", "hostA", 2809, "poa/oid")
    assert ref.priority_model() == PriorityModelValue.CLIENT_PROPAGATED
    assert ref.find_component(ComponentTag.PRIORITY_MODEL) is None
    assert ref.protocol_dscp() is None


def test_objref_server_declared_component():
    ref = ObjectReference(
        "IDL:X:1.0", "hostA", 2809, "poa/oid",
        components=[TaggedComponent(
            ComponentTag.PRIORITY_MODEL,
            {"model": int(PriorityModelValue.SERVER_DECLARED), "priority": 9000},
        )],
    )
    assert ref.priority_model() == PriorityModelValue.SERVER_DECLARED
    assert ref.find_component(
        ComponentTag.PRIORITY_MODEL).data["priority"] == 9000


def test_objref_protocol_properties_dscp():
    ref = ObjectReference(
        "IDL:X:1.0", "hostA", 2809, "poa/oid",
        components=[TaggedComponent(
            ComponentTag.PROTOCOL_PROPERTIES, {"dscp": int(Dscp.EF)}
        )],
    )
    assert ref.protocol_dscp() == Dscp.EF


def test_objref_corbaloc():
    ref = ObjectReference("IDL:X:1.0", "hostA", 2809, "poa/oid")
    assert ref.corbaloc() == "corbaloc:sim:hostA:2809/poa/oid"
