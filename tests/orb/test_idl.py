"""Tests for the IDL compiler."""

import pytest

from repro.orb import IdlError, compile_idl
from repro.orb.poa import Servant


IDL = """
// A demo module.
module Demo {
    interface Echo {
        string say(in string text);
        long add(in long a, in long b);
        oneway void push(in opaque frame);
        double stats(in double sample);
    };
    interface Empty {
    };
};
interface TopLevel {
    void ping();
};
"""


def test_compile_finds_all_interfaces():
    interfaces = compile_idl(IDL)
    assert set(interfaces) == {"Demo::Echo", "Demo::Empty", "TopLevel"}


def test_type_ids():
    interfaces = compile_idl(IDL)
    assert interfaces["Demo::Echo"].type_id == "IDL:Demo/Echo:1.0"
    assert interfaces["TopLevel"].type_id == "IDL:TopLevel:1.0"


def test_operation_signatures():
    echo = compile_idl(IDL)["Demo::Echo"]
    add = echo.operations["add"]
    assert add.param_types == ["long", "long"]
    assert add.param_names == ["a", "b"]
    assert add.result_type == "long"
    assert not add.oneway
    push = echo.operations["push"]
    assert push.oneway
    assert push.result_type == "void"


def test_generated_skeleton_is_servant_subclass():
    echo = compile_idl(IDL)["Demo::Echo"]
    assert issubclass(echo.skeleton_class, Servant)
    assert echo.skeleton_class._repro_type_id == "IDL:Demo/Echo:1.0"
    assert set(echo.skeleton_class._repro_operations) == {
        "say", "add", "push", "stats",
    }


def test_skeleton_methods_abstract():
    echo = compile_idl(IDL)["Demo::Echo"]
    servant = echo.skeleton_class()
    with pytest.raises(NotImplementedError):
        servant.say("hi")


def test_stub_class_has_operation_methods():
    echo = compile_idl(IDL)["Demo::Echo"]
    for name in ("say", "add", "push", "stats"):
        assert hasattr(echo.stub_class, name)


def test_multiword_types():
    interfaces = compile_idl("""
        interface Wide {
            unsigned long count(in unsigned long big, in long small);
        };
    """)
    op = interfaces["Wide"].operations["count"]
    assert op.result_type == "unsigned long"
    assert op.param_types == ["unsigned long", "long"]


def test_nested_modules():
    interfaces = compile_idl("""
        module A { module B { interface C { void f(); }; }; };
    """)
    assert "A::B::C" in interfaces


def test_comments_stripped():
    interfaces = compile_idl("""
        // line comment with interface keyword
        /* block comment
           interface Fake { void f(); }; */
        interface Real { void g(); };
    """)
    assert set(interfaces) == {"Real"}


def test_oneway_must_return_void():
    with pytest.raises(IdlError):
        compile_idl("interface Bad { oneway long f(); };")


def test_out_params_rejected():
    with pytest.raises(IdlError):
        compile_idl("interface Bad { void f(out long x); };")


def test_unknown_type_rejected():
    with pytest.raises(IdlError):
        compile_idl("interface Bad { void f(in widget w); };")


@pytest.mark.parametrize("spelled, named", [
    ("unsigned short", "unsigned short"),
    ("long long", "long long"),
    ("float", "float"),
    ("sequence<long>", "sequence"),
])
def test_type_without_a_codec_rejected_at_compile(spelled, named):
    """The compiler accepts exactly the CDR codec table's types, so a
    type with no codec fails here, naming it, not later in marshaling."""
    with pytest.raises(IdlError, match=f"unsupported IDL type '{named}'"):
        compile_idl(f"interface Bad {{ void f(in {spelled} x); }};")


def test_duplicate_operation_rejected():
    with pytest.raises(IdlError):
        compile_idl("interface Bad { void f(); void f(); };")


def test_empty_idl_rejected():
    with pytest.raises(IdlError):
        compile_idl("   /* nothing */  ")


def test_garbage_rejected():
    with pytest.raises(IdlError):
        compile_idl("banana { }")
