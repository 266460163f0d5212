"""A hot path looks up no enum (DESIGN §13).

On CPython 3.10 and 3.11 ``EnumMeta`` defines ``__getattr__``, so a
member load through its class (``Protocol.RSVP``) costs about ten
module-global loads, and cProfile books that cost to the calling frame
where nobody sees it.  The functions below run once per packet, per
scheduling decision, per frame or per sample: their bodies read enum
members through names bound once in the enum's own module
(``net.packet.RSVP``, ``oskernel.thread.READY``, ...).  A plain ``Enum``
used as a dict key or set member on such a path hashes by identity.
"""

import ast
import enum
import importlib
import inspect
import pkgutil
import textwrap

import repro
from repro.net.packet import Protocol

#: module -> qualified names of its per-packet / per-dispatch functions.
HOT = {
    "repro.net.link": ["Interface.send", "Interface._kick",
                       "Interface._transmit_done", "Interface._deliver"],
    "repro.net.queues": ["FifoQueue.enqueue", "FifoQueue.dequeue",
                         "DiffServQueue.enqueue", "DiffServQueue.dequeue",
                         "GuaranteedRateQueue.enqueue"],
    "repro.net.router": ["Router.receive"],
    "repro.net.nic": ["Nic.send", "Nic.receive"],
    "repro.net.packet": ["Packet.__init__"],
    "repro.net.traffic": ["CbrTrafficSource._emit"],
    "repro.net.transport": ["DatagramSocket.send_to",
                            "StreamConnection._transmit",
                            "StreamConnection._send_ack",
                            "StreamConnection._deliver",
                            "StreamConnection._handle_ack",
                            "StreamConnection._handle_data"],
    "repro.oskernel.cpu": ["CPU.submit", "CPU._make_ready",
                           "CPU._charge_current", "CPU._complete",
                           "CPU._dispatch"],
    "repro.oskernel.reserve": ["Reserve.boost_deadline", "Reserve.sync",
                               "Reserve.consume",
                               "Reserve.next_boundary_time",
                               "Reserve._boundary_index"],
    "repro.media.mpeg": ["GopStructure.frame_type", "MpegStream.next_frame"],
    "repro.media.filtering": ["FrameFilter.accept"],
    "repro.avstreams.endpoints": ["FlowProducer.send_frame",
                                  "FlowConsumer._deliver"],
    "repro.experiments.actors": ["AvVideoSender.on_tick",
                                 "AvVideoReceiver._on_frame"],
    "repro.pubsub.core": ["DataReader._receive"],
    "repro.pubsub.history": ["HistoryCache.add"],
    "repro.sim.kernel": ["Kernel.run"],
    "repro.orb.giop": ["GiopMessage.encode"],
    "repro.orb.ior": ["ObjectReference.priority_model",
                      "ObjectReference.protocol_dscp"],
    "repro.orb.core": ["Orb._effective_dscp", "Orb._on_client_message",
                       "Orb._on_server_message"],
    "repro.orb.poa": ["Poa._serve"],
}

#: Plain (non-int) enums whose members key a dict or set on a hot path.
IDENTITY_HASHED = [
    ("repro.net.packet", "Protocol"),
    ("repro.media.mpeg", "FrameType"),
    ("repro.oskernel.priorities", "OsType"),
]


def repro_enums():
    """Every ``Enum`` class defined under ``repro``, found by importing
    each of its modules."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (isinstance(value, type) and issubclass(value, enum.Enum)
                    and value.__module__.startswith("repro.")):
                found.add(value)
    return found


def _resolve(node, namespace):
    """The object a ``Name`` / ``Attribute`` chain names in
    ``namespace``, or ``None``."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, namespace)
        return None if base is None else getattr(base, node.attr, None)
    return None


def member_loads(module_name, qualname, enums):
    """``Enum.MEMBER`` loads in the body of ``module_name.qualname``
    (argument defaults are evaluated once and do not count)."""
    module = importlib.import_module(module_name)
    function = module
    for part in qualname.split("."):
        function = getattr(function, part)
    function = inspect.unwrap(getattr(function, "fget", function))
    lines, first = inspect.getsourcelines(function)
    definition = ast.parse(textwrap.dedent("".join(lines))).body[0]
    loads = []
    for statement in definition.body:
        for node in ast.walk(statement):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                continue
            owner = _resolve(node.value, vars(module))
            if (isinstance(owner, type) and owner in enums
                    and node.attr in owner.__members__):
                loads.append(f"{owner.__name__}.{node.attr} "
                             f"(line {first + node.lineno - 1})")
    return loads


def _reads_a_member_through_its_class(packet):
    return packet.protocol is Protocol.RSVP


def test_the_scan_finds_enums_and_member_loads():
    """The discovery sees the enums, and the scan flags a member load, so
    an empty result below means something."""
    enums = repro_enums()
    names = {cls.__name__ for cls in enums}
    assert {"Protocol", "ThreadState", "FrameType", "Dscp",
            "OwnershipKind", "MsgType"} <= names
    line = _reads_a_member_through_its_class.__code__.co_firstlineno + 1
    assert member_loads(__name__, "_reads_a_member_through_its_class",
                        enums) == [f"Protocol.RSVP (line {line})"]


def test_hot_paths_load_no_enum_member_through_its_class():
    enums = repro_enums()
    offenders = {}
    for module_name, qualnames in HOT.items():
        for qualname in qualnames:
            loads = member_loads(module_name, qualname, enums)
            if loads:
                offenders[f"{module_name}.{qualname}"] = loads
    assert offenders == {}


def test_hot_dict_key_enums_hash_by_identity():
    for module_name, class_name in IDENTITY_HASHED:
        cls = getattr(importlib.import_module(module_name), class_name)
        for member in cls:
            assert type(member).__hash__ is object.__hash__, member
            assert {member: 1}[member] == 1
