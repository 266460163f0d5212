"""Unit and property tests for CDR marshaling."""

import pytest
from hypothesis import given, strategies as st

from repro.orb.cdr import (
    CdrError,
    CdrInputStream,
    CdrOutputStream,
    OpaquePayload,
    reader_for,
    writer_for,
)


def roundtrip(write, read, value):
    out = CdrOutputStream()
    write(out, value)
    inp = CdrInputStream(out.getvalue(), out.opaques)
    return read(inp)


def test_basic_roundtrips():
    cases = [
        ("octet", 200),
        ("boolean", True),
        ("boolean", False),
        ("short", -1234),
        ("long", -(2**31)),
        ("unsigned long", 2**32 - 1),
        ("double", 3.141592653589793),
        ("string", "hello world"),
        ("string", ""),
        ("string", "unicodé ☃"),
    ]
    for idl_type, value in cases:
        assert roundtrip(writer_for(idl_type), reader_for(idl_type), value) == value


def test_alignment_rules():
    out = CdrOutputStream()
    out.write_octet(1)
    out.write_long(7)  # must align to offset 4
    data = out.getvalue()
    assert len(data) == 8
    assert data[1:4] == b"\x00\x00\x00"
    inp = CdrInputStream(data)
    assert inp.read_octet() == 1
    assert inp.read_long() == 7


def test_mixed_sequence_roundtrip():
    out = CdrOutputStream()
    out.write_octet(9)
    out.write_double(2.5)
    out.write_string("xyz")
    out.write_short(-3)
    inp = CdrInputStream(out.getvalue())
    assert inp.read_octet() == 9
    assert inp.read_double() == 2.5
    assert inp.read_string() == "xyz"
    assert inp.read_short() == -3


def test_unsupported_type_rejected():
    with pytest.raises(CdrError):
        writer_for("wstring")
    with pytest.raises(CdrError):
        reader_for("struct Foo")


def test_truncated_stream_raises():
    out = CdrOutputStream()
    out.write_long(1)
    data = out.getvalue()[:2]
    with pytest.raises(CdrError):
        CdrInputStream(data).read_long()


def test_opaque_payload_roundtrip():
    payload = OpaquePayload({"frame": 42}, nbytes=12_000)
    out = CdrOutputStream()
    out.write_string("header")
    out.write_opaque(payload)
    assert [opaque.nbytes for opaque in out.opaques] == [12_000]
    inp = CdrInputStream(out.getvalue(), out.opaques)
    assert inp.read_string() == "header"
    assert inp.read_opaque() == payload


def test_opaque_sidecar_index_out_of_range():
    out = CdrOutputStream()
    out.write_opaque(OpaquePayload("x", 10))
    inp = CdrInputStream(out.getvalue(), opaques=[])  # sidecar lost
    with pytest.raises(CdrError):
        inp.read_opaque()


def test_opaque_negative_size_rejected():
    with pytest.raises(CdrError):
        OpaquePayload("x", -1)


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
def test_prop_long_roundtrip(value):
    assert roundtrip(writer_for("long"), reader_for("long"), value) == value


@given(st.text(max_size=200))
def test_prop_string_roundtrip(value):
    assert roundtrip(writer_for("string"), reader_for("string"), value) == value


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_prop_ulong_roundtrip(value):
    write = writer_for("unsigned long")
    read = reader_for("unsigned long")
    assert roundtrip(write, read, value) == value


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["octet", "short", "long", "double", "string"]),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=20,
    )
)
def test_prop_interleaved_fields_roundtrip(fields):
    """Any interleaving of types must round-trip through alignment."""
    out = CdrOutputStream()
    expected = []
    for idl_type, seed in fields:
        value = {"octet": seed, "short": seed - 128, "long": seed * 1000,
                 "double": seed / 7.0, "string": "s" * (seed % 17)}[idl_type]
        writer_for(idl_type)(out, value)
        expected.append((idl_type, value))
    inp = CdrInputStream(out.getvalue())
    for idl_type, value in expected:
        assert reader_for(idl_type)(inp) == value
