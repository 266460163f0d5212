"""A hot path looks up no enum and keeps no book nobody reads (DESIGN §13).

On CPython 3.10 and 3.11 ``EnumMeta`` defines ``__getattr__``, so a
member load through its class (``Protocol.RSVP``) costs about ten
module-global loads, and cProfile books that cost to the calling frame
where nobody sees it.  The functions below run once per packet, per
scheduling decision, per frame or per sample: their bodies read enum
members through names bound once in the enum's own module
(``net.packet.RSVP``, ``oskernel.thread.READY``, ...).  A plain ``Enum``
used as a dict key or set member on such a path hashes by identity.

A counter bumped on the packet path costs every packet, and one on
the pub-sub data plane costs every sample, so each ``self.<x> += ...``
in a hot ``repro.net`` or ``repro.pubsub`` function must name an
attribute that some code under ``src/repro`` or ``perf/`` loads (its
own augmented writes store, they do not load), or be in
``UNREAD_BOOKS`` with its reason.  The check goes by attribute name, so
a read of a same-named attribute of another class satisfies it.
"""

import ast
import enum
import importlib
import inspect
import pkgutil
import textwrap
from pathlib import Path

import repro
from repro.net.packet import Protocol

#: module -> qualified names of its per-packet / per-dispatch functions.
HOT = {
    "repro.net.link": ["Interface.send", "Interface._kick",
                       "Interface._transmit_done", "Interface._deliver"],
    "repro.net.queues": ["FifoQueue.enqueue", "FifoQueue.dequeue",
                         "DiffServQueue.enqueue", "DiffServQueue.dequeue",
                         "GuaranteedRateQueue.enqueue",
                         "TokenBucket.try_consume", "TokenBucket._refill",
                         "QueueDiscipline._drop"],
    "repro.net.router": ["Router.receive"],
    "repro.net.nic": ["Nic.send", "Nic.receive"],
    "repro.net.packet": ["Packet.__init__"],
    "repro.net.traffic": ["CbrTrafficSource._emit"],
    "repro.net.transport": ["DatagramSocket.send_to",
                            "StreamConnection.send_message",
                            "StreamConnection._pump",
                            "StreamConnection._transmit",
                            "StreamConnection._deliver",
                            "StreamConnection._handle_ack",
                            "StreamConnection._handle_data",
                            "StreamConnection._assemble",
                            "StreamListener._deliver"],
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
    "repro.pubsub.core": ["DataWriter.write", "DataWriter._send",
                          "DataReader._receive",
                          "DataReader._deadline_check"],
    "repro.pubsub.dedup": ["DedupLedger.observe"],
    "repro.pubsub.filters": ["ContentFilter.matches"],
    "repro.pubsub.history": ["HistoryCache.add"],
    "repro.sim.kernel": ["Kernel.run"],
    "repro.orb.giop": ["GiopMessage.encode"],
    "repro.orb.ior": ["ObjectReference.priority_model",
                      "ObjectReference.protocol_dscp"],
    "repro.orb.core": ["Orb._effective_dscp", "Orb._on_client_message",
                       "Orb._on_server_message"],
    "repro.orb.poa": ["Poa._serve"],
}

#: Books a hot ``repro.net`` or ``repro.pubsub`` function bumps
#: although nothing under ``src/repro`` or ``perf/`` loads them:
#: name -> why each stays.
UNREAD_BOOKS = {
    "conformed": "no record says which lane a policed packet joined; "
                 "the reserved-lane bound oracle and tests read it",
    "demoted": "the other lane of that split, read by tests",
    "packets_sent": "tests stop a CBR source on it",
    "undeliverable": "a rare path: a packet no endpoint takes",
    "messages_sent": "a stream's books, bumped per message, not per "
                     "segment; tests and the transport equivalence "
                     "oracle read them",
    "messages_delivered": "the same, on the receiving side",
    "samples_sent": "a writer's sends over all its matches, one per "
                    "sample and reader; tests read it",
    "sends_suppressed": "the writer side of a divisor grant, which tests "
                        "check landed; the figures read the reader's "
                        "books",
    "duplicate_drops": "a ledger's own duplicate count, beside the "
                       "reader's ``duplicates``; tests and the dedup "
                       "oracle read it",
    "evaluated": "a content filter's evaluations, read by tests and the "
                 "filter oracle",
    "accepted": "the samples a content filter passed and those a "
                "history cache stored: tests and the filter oracle "
                "read them",
    "replaced": "KEEP_LAST evictions, read by tests",
}

#: The packages whose hot functions the unread-book scan covers.
BOOK_SCAN = ("repro.net.", "repro.pubsub.")

#: Where a book's readers may live.
READER_ROOTS = (Path(repro.__file__).parent,
                Path(__file__).resolve().parents[2] / "perf")

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


def definition_of(module_name, qualname):
    """(module, AST of ``module_name.qualname``'s definition, its first
    source line)."""
    module = importlib.import_module(module_name)
    function = module
    for part in qualname.split("."):
        function = getattr(function, part)
    function = inspect.unwrap(getattr(function, "fget", function))
    lines, first = inspect.getsourcelines(function)
    return module, ast.parse(textwrap.dedent("".join(lines))).body[0], first


def member_loads(module_name, qualname, enums):
    """``Enum.MEMBER`` loads in the body of ``module_name.qualname``
    (argument defaults are evaluated once and do not count)."""
    module, definition, first = definition_of(module_name, qualname)
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


def books_bumped(module_name, qualname):
    """Attributes the body of ``module_name.qualname`` updates in place
    through ``self`` (``self.<x> += ...``, any operator)."""
    _, definition, _ = definition_of(module_name, qualname)
    return {node.target.attr for node in ast.walk(definition)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and isinstance(node.target.value, ast.Name)
            and node.target.value.id == "self"}


def attribute_loads(roots):
    """Every attribute name loaded (``<expr>.<name>`` read) in the
    Python sources under ``roots``."""
    names = set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    names.add(node.attr)
    return names


def _reads_a_member_through_its_class(packet):
    return packet.protocol is Protocol.RSVP


class _KeepsABookNobodyReads:
    def bump(self, packet):
        self.book_nobody_reads += packet.size_bytes


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


def hot_books():
    """book name -> the hot ``repro.net`` and ``repro.pubsub`` functions
    that bump it."""
    bumped = {}
    for module_name, qualnames in HOT.items():
        if module_name.startswith(BOOK_SCAN):
            for qualname in qualnames:
                for book in books_bumped(module_name, qualname):
                    bumped.setdefault(book, []).append(
                        f"{module_name}.{qualname}")
    return bumped


def test_the_book_scan_finds_bumps_and_loads():
    """The scan sees an in-place bump, and the reader scan sees loads but
    not stores, so an empty result below means something."""
    assert books_bumped(__name__, "_KeepsABookNobodyReads.bump") == {
        "book_nobody_reads"}
    loads = attribute_loads(READER_ROOTS)
    assert {"enqueued", "dequeued", "dropped"} <= loads
    assert "book_nobody_reads" not in loads
    assert "_tokens" in hot_books()


def test_every_book_a_hot_net_function_bumps_is_read():
    loads = attribute_loads(READER_ROOTS)
    unread = {book: where for book, where in hot_books().items()
              if book not in loads and book not in UNREAD_BOOKS}
    assert unread == {}


def test_the_unread_books_are_bumped_and_unread():
    """An entry whose book gained a reader, or left the hot path, goes."""
    loads = attribute_loads(READER_ROOTS)
    bumped = hot_books()
    assert {book for book in UNREAD_BOOKS
            if book in loads or book not in bumped} == set()
