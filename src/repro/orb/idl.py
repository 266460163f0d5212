"""A small IDL compiler.

Parses a subset of OMG IDL — modules, interfaces, operations with
``in`` parameters, ``oneway`` — and generates *stub* and *skeleton*
classes wired to the CDR codecs, mirroring what TAO's IDL compiler
produces (stubs marshal on the client, skeletons demarshal and
dispatch on the server).

Supported types are the CDR codec table's (:data:`repro.orb.cdr.IDL_TYPES`):
``void boolean octet short long unsigned long double string opaque``.
Any other type (``unsigned short``, ``long long``, ``float``,
``sequence<T>``, ...) is an :class:`IdlError` naming it.  ``opaque`` is
this ORB's extension for application payloads with declared wire sizes
(see :class:`repro.orb.cdr.OpaquePayload`).

Example
-------
>>> interfaces = compile_idl('''
...     module Demo {
...         interface Echo {
...             string say(in string text);
...             oneway void push(in opaque frame);
...         };
...     };
... ''')
>>> sorted(interfaces)
['Demo::Echo']
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional

from repro.sim.process import Signal
from repro.orb.cdr import (
    IDL_TYPES,
    CdrInputStream,
    CdrOutputStream,
    reader_for,
    writer_for,
)
from repro.orb.ior import ObjectReference
from repro.orb.poa import Servant


class IdlError(ValueError):
    """Raised on IDL the compiler cannot parse or support."""


class OperationDef:
    """Compiled signature of one IDL operation."""

    def __init__(
        self,
        name: str,
        result_type: str,
        param_names: List[str],
        param_types: List[str],
        oneway: bool,
    ) -> None:
        if oneway and result_type != "void":
            raise IdlError(f"oneway operation {name!r} must return void")
        self.name = name
        self.result_type = result_type
        self.param_names = param_names
        self.param_types = param_types
        self.oneway = oneway
        self.param_writers = [writer_for(t) for t in param_types]
        self.param_readers = [reader_for(t) for t in param_types]
        self.result_writer: Optional[Callable] = (
            None if result_type == "void" else writer_for(result_type)
        )
        self.result_reader: Optional[Callable] = (
            None if result_type == "void" else reader_for(result_type)
        )

    def __repr__(self) -> str:  # pragma: no cover
        mode = "oneway " if self.oneway else ""
        params = ", ".join(
            f"in {t} {n}" for t, n in zip(self.param_types, self.param_names)
        )
        return f"{mode}{self.result_type} {self.name}({params})"


class InterfaceDef:
    """A compiled interface: operation table plus generated classes."""

    def __init__(self, qualified_name: str, operations: Dict[str, OperationDef]):
        self.qualified_name = qualified_name
        self.operations = operations
        self.type_id = f"IDL:{qualified_name.replace('::', '/')}:1.0"
        self.stub_class = _make_stub_class(self)
        self.skeleton_class = _make_skeleton_class(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<InterfaceDef {self.qualified_name}>"


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[{}();,<>]")


class _Tokens:
    def __init__(self, text: str) -> None:
        text = re.sub(r"//[^\n]*", "", text)
        text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
        self._tokens = _TOKEN_RE.findall(text)
        self._index = 0

    def peek(self) -> Optional[str]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise IdlError("unexpected end of IDL")
        self._index += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise IdlError(f"expected {token!r}, got {got!r}")

    @property
    def exhausted(self) -> bool:
        return self._index >= len(self._tokens)


def _parse_type(tokens: _Tokens) -> str:
    word = tokens.next()
    if word == "unsigned" or (word == "long" and tokens.peek() == "long"):
        word = f"{word} {tokens.next()}"
    if word not in IDL_TYPES:
        raise IdlError(f"unsupported IDL type {word!r}")
    return word


def _parse_operation(tokens: _Tokens) -> OperationDef:
    oneway = False
    if tokens.peek() == "oneway":
        tokens.next()
        oneway = True
    result_type = _parse_type(tokens)
    name = tokens.next()
    tokens.expect("(")
    param_names: List[str] = []
    param_types: List[str] = []
    while tokens.peek() != ")":
        direction = tokens.next()
        if direction != "in":
            raise IdlError(
                f"only 'in' parameters are supported, got {direction!r}"
            )
        param_types.append(_parse_type(tokens))
        param_names.append(tokens.next())
        if tokens.peek() == ",":
            tokens.next()
    tokens.expect(")")
    tokens.expect(";")
    return OperationDef(name, result_type, param_names, param_types, oneway)


def _parse_interface(tokens: _Tokens, prefix: str) -> InterfaceDef:
    name = tokens.next()
    tokens.expect("{")
    operations: Dict[str, OperationDef] = {}
    while tokens.peek() != "}":
        operation = _parse_operation(tokens)
        if operation.name in operations:
            raise IdlError(f"duplicate operation {operation.name!r}")
        operations[operation.name] = operation
    tokens.expect("}")
    tokens.expect(";")
    qualified = f"{prefix}{name}"
    return InterfaceDef(qualified, operations)


def _parse_scope(
    tokens: _Tokens, prefix: str, result: Dict[str, InterfaceDef]
) -> None:
    while not tokens.exhausted and tokens.peek() != "}":
        keyword = tokens.next()
        if keyword == "module":
            name = tokens.next()
            tokens.expect("{")
            _parse_scope(tokens, f"{prefix}{name}::", result)
            tokens.expect("}")
            tokens.expect(";")
        elif keyword == "interface":
            interface = _parse_interface(tokens, prefix)
            if interface.qualified_name in result:
                raise IdlError(
                    f"duplicate interface {interface.qualified_name!r}"
                )
            result[interface.qualified_name] = interface
        else:
            raise IdlError(f"expected 'module' or 'interface', got {keyword!r}")


def compile_idl(text: str) -> Dict[str, InterfaceDef]:
    """Compile IDL source into a map of qualified name -> InterfaceDef."""
    tokens = _Tokens(text)
    result: Dict[str, InterfaceDef] = {}
    _parse_scope(tokens, "", result)
    if tokens.peek() == "}":
        raise IdlError("unbalanced '}'")
    if not result:
        raise IdlError("no interfaces found")
    return result


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
class StubBase:
    """Base for generated stubs: holds call-context QoS knobs.

    ``priority``, ``dscp`` and ``timeout`` are deliberately mutable:
    QuO delegates adapt in-band by adjusting them between calls.
    """

    _repro_interface: InterfaceDef = None  # set by subclass factory

    def __init__(
        self,
        orb,
        objref: ObjectReference,
        thread=None,
        priority: Optional[int] = None,
        dscp=None,
        timeout: Optional[float] = None,
    ) -> None:
        self._orb = orb
        self._objref = objref
        self.thread = thread
        self.priority = priority
        self.dscp = dscp
        self.timeout = timeout
        #: Per-stub call counter (observability).
        self.calls = 0

    def transport_depth(self) -> int:
        """Send-queue depth of this stub's connection (0 if none yet)."""
        return self._orb.transport_depth(
            self._objref, self.priority, self.dscp
        )

    def _invoke(self, operation: OperationDef, args: tuple) -> Signal:
        if len(args) != len(operation.param_writers):
            raise TypeError(
                f"{operation.name}() takes {len(operation.param_writers)} "
                f"arguments ({len(args)} given)"
            )
        out = CdrOutputStream()
        for writer, arg in zip(operation.param_writers, args):
            writer(out, arg)
        self.calls += 1
        reply = self._orb.invoke(
            self._objref,
            operation.name,
            out.getvalue(),
            opaques=out.opaques,
            thread=self.thread,
            priority=self.priority,
            dscp=self.dscp,
            response_expected=not operation.oneway,
            timeout=self.timeout,
        )
        result = Signal(self._orb.kernel, name=f"{operation.name}.result")

        def on_reply(value) -> None:
            if isinstance(value, BaseException) or value is None:
                result.fire(value)
                return
            if operation.result_reader is None:
                result.fire(None)
                return
            inp = CdrInputStream(value.body, value.opaques)
            result.fire(operation.result_reader(inp))

        reply.wait(on_reply)
        return result


def _make_stub_method(operation: OperationDef):
    def method(self, *args):
        return self._invoke(operation, args)

    method.__name__ = operation.name
    method.__doc__ = f"IDL operation: {operation!r}"
    return method


def _make_stub_class(interface: InterfaceDef):
    namespace = {"_repro_interface": interface, "__doc__": (
        f"Generated stub for {interface.qualified_name}."
    )}
    for operation in interface.operations.values():
        namespace[operation.name] = _make_stub_method(operation)
    class_name = interface.qualified_name.split("::")[-1] + "Stub"
    return type(class_name, (StubBase,), namespace)


def _make_skeleton_method(operation: OperationDef):
    def method(self, *args):
        raise NotImplementedError(
            f"servant must implement {operation.name!r}"
        )

    method.__name__ = operation.name
    method.__doc__ = f"IDL operation: {operation!r}"
    return method


def _make_skeleton_class(interface: InterfaceDef):
    namespace: Dict[str, Any] = {
        "_repro_operations": interface.operations,
        "_repro_type_id": interface.type_id,
        "_repro_interface": interface,
        "__doc__": f"Generated skeleton for {interface.qualified_name}.",
    }
    for operation in interface.operations.values():
        namespace[operation.name] = _make_skeleton_method(operation)
    class_name = interface.qualified_name.split("::")[-1] + "Skeleton"
    return type(class_name, (Servant,), namespace)
