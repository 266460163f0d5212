"""Unit tests for packets and DiffServ classification."""

from repro.net import Dscp, Packet, PhbClass, Protocol, classify
from repro.net.diffserv import drop_precedence
from repro.net.packet import HEADER_BYTES
from repro.sim import Kernel


def make_packet(**kwargs):
    defaults = dict(
        src="a", dst="b", src_port=1, dst_port=2,
        protocol=Protocol.UDP, payload_bytes=1000,
    )
    defaults.update(kwargs)
    return Packet(**defaults)


def test_packet_size_includes_header():
    packet = make_packet(payload_bytes=1000)
    assert packet.size_bytes == 1000 + HEADER_BYTES
    assert packet.size_bits == (1000 + HEADER_BYTES) * 8


def test_packet_default_flow_id_is_five_tuple_like():
    packet = make_packet()
    assert packet.flow_id == "a:1->b:2"


def test_packet_custom_flow_id():
    packet = make_packet(flow_id="video-1")
    assert packet.flow_id == "video-1"


def test_packet_ids_unique():
    """Ids are unique within one kernel, and each kernel numbers its own."""
    kernel = Kernel()
    ids = kernel.ids("packet")
    assert kernel.ids("packet") is ids  # every constructor site shares it
    a, b = make_packet(packet_id=ids()), make_packet(packet_id=ids())
    assert (a.packet_id, b.packet_id) == (1, 2)
    assert kernel.ids("message")() == 1
    assert make_packet(packet_id=Kernel().ids("packet")()).packet_id == 1


def test_ef_classifies_expedited():
    assert classify(Dscp.EF) == PhbClass.EXPEDITED


def test_best_effort_classifies_default():
    assert classify(Dscp.BE) == PhbClass.DEFAULT


def test_af_classes_ordered():
    assert classify(Dscp.AF41) == PhbClass.ASSURED4
    assert classify(Dscp.AF31) == PhbClass.ASSURED3
    assert classify(Dscp.AF21) == PhbClass.ASSURED2
    assert classify(Dscp.AF11) == PhbClass.ASSURED1
    assert PhbClass.ASSURED4 < PhbClass.ASSURED1  # served earlier


def test_class_selectors():
    assert classify(Dscp.CS6) == PhbClass.EXPEDITED
    assert classify(Dscp.CS1) == PhbClass.DEFAULT
    assert classify(Dscp.CS2) == PhbClass.DEFAULT


def test_af_drop_precedence():
    assert drop_precedence(Dscp.AF11) == 1
    assert drop_precedence(Dscp.AF12) == 2
    assert drop_precedence(Dscp.AF13) == 3
    assert drop_precedence(Dscp.EF) == 1


def test_expedited_beats_everything():
    for dscp in Dscp:
        assert classify(Dscp.EF) <= classify(dscp)
