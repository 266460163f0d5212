"""The ORB core: request lifecycle, connection cache, dispatching.

Client side
-----------

:meth:`Orb.invoke` marshals a request (charging marshaling CPU to the
calling thread), selects a connection keyed by (endpoint, DSCP) — a
separate connection per network priority, mirroring RT-CORBA banded
connections — and returns a :class:`~repro.sim.process.Signal` that
fires with the reply (or with an exception object; see
:func:`raise_if_error`).

Server side
-----------

An acceptor listens on the ORB port.  Incoming requests are decoded,
their propagated RT-CORBA priority extracted from the service context,
and a work item queued on the target POA's thread pool lane.  The
worker thread assumes the mapped native priority (CLIENT_PROPAGATED)
or the POA's declared priority (SERVER_DECLARED), pays the
demarshal/dispatch CPU cost, runs the servant, and sends the reply.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.sim.process import Signal
from repro.oskernel.host import Host
from repro.oskernel.thread import SimThread
from repro.net.diffserv import BE, Dscp
from repro.net.topology import Network
from repro.net.transport import MessageMeta, StreamConnection, StreamListener
from repro.orb.cdr import CdrInputStream, CdrOutputStream, OpaquePayload
from repro.orb.giop import (NO_EXCEPTION, REPLY, REQUEST, SYSTEM_EXCEPTION,
                            GiopMessage, ReplyStatus)
from repro.orb.ior import SERVER_DECLARED, ObjectReference
from repro.orb.poa import Poa
from repro.orb.rt import PriorityMappingManager, ThreadPool


class OrbError(RuntimeError):
    """A CORBA-ish system exception surfaced to the caller."""


class RequestTimeout(OrbError):
    """The relative round-trip timeout expired before the reply."""


class ConnectionClosed(OrbError):
    """The transport under a pending request died (COMM_FAILURE)."""


def raise_if_error(value: Any) -> Any:
    """Raise ``value`` if the reply signal delivered an exception."""
    if isinstance(value, BaseException):
        raise value
    return value


class _PendingRequest:
    __slots__ = ("signal", "timeout_event", "sent_at", "connection")

    def __init__(self, signal: Signal, sent_at: float) -> None:
        self.signal = signal
        self.timeout_event: Optional[ScheduledEvent] = None
        self.sent_at = sent_at
        # The transport the request went out on; None until transmit
        # (marshaling may still be in progress).  Lets the ORB fail
        # the request if that connection dies — without it, a request
        # with no timeout would wait forever on a closed connection.
        self.connection: Optional[StreamConnection] = None


class Orb:
    """One ORB instance bound to one simulated host.

    Parameters
    ----------
    kernel, host, network:
        The substrate to run on.  The host must already be attached to
        the network.
    port:
        The acceptor port (default 2809, the IIOP registered port).
    cpu_cost_base / cpu_cost_per_kb:
        CPU seconds charged per (de)marshal operation: a fixed cost
        plus a size-proportional term.  Calibrated so a 5 kB request
        costs ~0.25 ms on the reference 1 GHz machine — in the range
        the paper's testbed exhibits (1.5 ms end-to-end incl. network).
    """

    def __init__(
        self,
        kernel: Kernel,
        host: Host,
        network: Network,
        port: int = 2809,
        cpu_cost_base: float = 50e-6,
        cpu_cost_per_kb: float = 40e-6,
    ) -> None:
        self.kernel = kernel
        self.host = host
        self.network = network
        self.port = int(port)
        self.cpu_cost_base = float(cpu_cost_base)
        self.cpu_cost_per_kb = float(cpu_cost_per_kb)
        self._request_id = kernel.ids("request")
        self.mapping_manager = PriorityMappingManager()
        #: When True, requests carrying a CORBA priority are marked
        #: with the DSCP derived from it (the paper's RT-CORBA/DiffServ
        #: integration).  Off by default: the control experiments run
        #: unmarked.
        self.map_priority_to_dscp = False
        #: RT-CORBA PriorityBandedConnection policy: when set (sorted
        #: band floors, e.g. ``[0, 10000, 20000]``), requests in
        #: different bands use *separate* connections, so low-priority
        #: bulk traffic cannot head-of-line-block urgent requests on a
        #: shared socket.  ``None`` (default) = one connection per
        #: (endpoint, DSCP).
        self.priority_bands = None
        self.nic = network.nic_of(host.name)
        self._listener = StreamListener(
            kernel, self.nic, self.port, on_connection=self._accept
        )
        self._connections: Dict[Tuple[str, int, Dscp], StreamConnection] = {}
        self._pending: Dict[int, _PendingRequest] = {}
        self._poas: Dict[str, Any] = {}
        self._default_pool: Optional[ThreadPool] = None
        #: RTCurrent analogue: the worker SimThread currently executing
        #: a servant body (valid only during servant code; see
        #: :meth:`repro.orb.poa.Servant.compute`).
        self.current_dispatch_thread: Optional[SimThread] = None
        #: ``RTCORBA::Current::the_priority``: the CORBA priority that
        #: body was dispatched at (valid only during servant code).
        self.current_priority: Optional[int] = None
        # Stats
        self.requests_sent = 0
        self.replies_received = 0
        self.requests_dispatched = 0
        #: Pending requests failed because their transport died.
        self.connection_failures = 0

    # ------------------------------------------------------------------
    # POA management
    # ------------------------------------------------------------------
    def create_poa(self, name: str, **kwargs) -> Poa:
        if name in self._poas:
            raise OrbError(f"POA {name!r} already exists")
        poa = Poa(self, name, **kwargs)
        self._poas[name] = poa
        return poa

    def default_thread_pool(self) -> ThreadPool:
        """Lazy singleton pool used by POAs created without one."""
        if self._default_pool is None:
            self._default_pool = ThreadPool(
                self.kernel,
                self.host,
                self.mapping_manager,
                lanes=[(0, 2)],
                name="default-pool",
            )
        return self._default_pool

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def marshal_cost(self, nbytes: int) -> float:
        return self.cpu_cost_base + (nbytes / 1024.0) * self.cpu_cost_per_kb

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def invoke(
        self,
        objref: ObjectReference,
        operation: str,
        body: bytes,
        opaques: Optional[list] = None,
        thread: Optional[SimThread] = None,
        priority: Optional[int] = None,
        dscp: Optional[Dscp] = None,
        response_expected: bool = True,
        timeout: Optional[float] = None,
    ) -> Signal:
        """Send a request; returns a signal fired with the reply message
        (or an exception object for timeouts/system errors)."""
        request_id = self._request_id()
        # Honor the target's priority model (embedded in its IOR).
        send_priority = priority
        if objref.priority_model() == SERVER_DECLARED:
            send_priority = None  # server ignores client priorities
        message = GiopMessage.request(
            request_id,
            objref.object_key,
            operation,
            body,
            opaques=opaques,
            response_expected=response_expected,
            priority=send_priority,
        )
        effective_dscp = self._effective_dscp(objref, priority, dscp)
        done = Signal(self.kernel)
        pending: Optional[_PendingRequest] = None
        if response_expected:
            pending = _PendingRequest(done, sent_at=self.kernel.now)
            self._pending[request_id] = pending
            if timeout is not None:
                pending.timeout_event = self.kernel.schedule(
                    timeout, self._timeout, request_id
                )
        encoded, sidecar = message.encode()
        wire_bytes = len(encoded) + sum(o.nbytes for o in sidecar)
        band = self._band_of(priority)
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.begin(
                "orb", "request", span=f"req:{request_id}", request=request_id,
                fields={"operation": operation, "key": objref.object_key,
                        "priority": send_priority,
                        "dscp": effective_dscp._name_,
                        "bytes": wire_bytes, "oneway": not response_expected,
                        "client": self.host.name},
            )
            if thread is not None:
                tracer.begin(
                    "orb", "marshal", span=f"marshal:{request_id}",
                    request=request_id, fields={"thread": thread.name},
                )

        def transmit() -> None:
            tr = self.kernel.tracer
            if tr is not None:
                if thread is not None:
                    tr.end("orb", "marshal", span=f"marshal:{request_id}",
                           request=request_id)
                tr.begin("orb", "transfer", span=f"xfer:{request_id}",
                         request=request_id,
                         fields={"dscp": effective_dscp._name_,
                                 "bytes": wire_bytes})
            connection = self._connection_to(
                objref.host, objref.port, effective_dscp, band
            )
            if pending is not None:
                pending.connection = connection
            connection.send_message((encoded, sidecar), wire_bytes)
            self.requests_sent += 1
            if not response_expected:
                # Ack on the next tick so a caller that yields the
                # signal right after invoke() cannot miss the fire.
                self.kernel.schedule(0.0, done.fire, None)

        if thread is not None:
            work = self.host.cpu.submit(thread, self.marshal_cost(wire_bytes))
            work.done.wait(lambda _request: transmit())
        else:
            transmit()
        return done

    def _effective_dscp(
        self,
        objref: ObjectReference,
        priority: Optional[int],
        dscp: Optional[Dscp],
    ) -> Dscp:
        if dscp is not None:
            return dscp
        from_ior = objref.protocol_dscp()
        if from_ior is not None:
            return from_ior
        if self.map_priority_to_dscp and priority is not None:
            return self.mapping_manager.to_dscp(priority)
        return BE

    def transport_depth(
        self,
        objref: ObjectReference,
        priority: Optional[int] = None,
        dscp: Optional[Dscp] = None,
    ) -> int:
        """Send-queue depth of the connection a request would use.

        Zero when no connection exists yet.  Lets rate-based callers
        (video senders) skip work the transport cannot keep up with.
        """
        effective = self._effective_dscp(objref, priority, dscp)
        key = (objref.host, objref.port, effective, self._band_of(priority))
        connection = self._connections.get(key)
        if connection is None or connection.closed:
            return 0
        return connection.send_depth

    def enable_priority_banded_connections(self, band_floors) -> None:
        """Install the PriorityBandedConnection policy.

        ``band_floors`` are the lower bounds of each band, ascending;
        the first must be 0 so every priority lands in some band.
        """
        floors = sorted(int(f) for f in band_floors)
        if not floors or floors[0] != 0:
            raise OrbError("band floors must start at 0")
        self.priority_bands = floors

    def _band_of(self, priority: Optional[int]) -> int:
        if self.priority_bands is None:
            return 0
        effective = 0 if priority is None else int(priority)
        band = self.priority_bands[0]
        for floor in self.priority_bands:
            if effective >= floor:
                band = floor
            else:
                break
        return band

    def _connection_to(
        self, host: str, port: int, dscp: Dscp, band: int = 0
    ) -> StreamConnection:
        key = (host, port, dscp, band)
        connection = self._connections.get(key)
        if connection is None or connection.closed:
            connection = StreamConnection.connect(
                self.kernel,
                self.nic,
                host,
                port,
                dscp=dscp,
                on_message=self._on_client_message,
            )
            connection.on_close = self._on_connection_closed
            self._connections[key] = connection
        return connection

    def _on_connection_closed(self, connection: StreamConnection) -> None:
        """Fail every request pending on a dead transport.

        Covers the give-up path (``MAX_CONSECUTIVE_RTOS``) as well as
        explicit shutdown: requests without a timeout would otherwise
        hang forever, since no reply can ever arrive on this
        connection again.
        """
        stranded = [rid for rid, p in self._pending.items()
                    if p.connection is connection]
        tracer = self.kernel.tracer
        for request_id in stranded:
            pending = self._pending.pop(request_id)
            if pending.timeout_event is not None:
                pending.timeout_event.cancel()
            self.connection_failures += 1
            if tracer is not None:
                tracer.end("orb", "request", span=f"req:{request_id}",
                           request=request_id,
                           fields={"status": "COMM_FAILURE"})
            pending.signal.fire(ConnectionClosed(
                f"request {request_id}: connection to "
                f"{connection.remote_host}:{connection.remote_port} closed"
            ))

    def _on_client_message(self, payload: Any, meta: MessageMeta) -> None:
        encoded, sidecar = payload
        message = GiopMessage.decode(encoded, sidecar)
        if message.msg_type is not REPLY:
            return
        pending = self._pending.pop(message.request_id, None)
        tracer = self.kernel.tracer
        if pending is None:
            if tracer is not None:
                tracer.instant("orb", "reply.late", request=message.request_id)
            return  # late reply after timeout
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        self.replies_received += 1
        if tracer is not None:
            rid = message.request_id
            tracer.end("orb", "reply.transfer", span=f"rxfer:{rid}",
                       request=rid)
            tracer.end("orb", "request", span=f"req:{rid}", request=rid,
                       fields={"status": message.reply_status._name_})
        if message.reply_status == SYSTEM_EXCEPTION:
            pending.signal.fire(OrbError(_decode_error(message)))
        else:
            pending.signal.fire(message)

    def _timeout(self, request_id: int) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is None:
            return
        elapsed = self.kernel.now - pending.sent_at
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.end("orb", "request", span=f"req:{request_id}",
                       request=request_id,
                       fields={"status": "TIMEOUT", "elapsed": elapsed})
        pending.signal.fire(
            RequestTimeout(f"request {request_id} timed out after {elapsed:.3f}s")
        )

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def _accept(self, connection: StreamConnection) -> None:
        connection.on_message = (
            lambda payload, meta: self._on_server_message(connection, payload)
        )

    def _on_server_message(
        self, connection: StreamConnection, payload: Any
    ) -> None:
        encoded, sidecar = payload
        message = GiopMessage.decode(encoded, sidecar)
        if message.msg_type is not REQUEST:
            return
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.end("orb", "transfer", span=f"xfer:{message.request_id}",
                       request=message.request_id,
                       fields={"server": self.host.name,
                               "priority": message.rt_priority()})
        poa_name, _, _oid = message.object_key.partition("/")
        poa = self._poas.get(poa_name)
        if poa is None:
            self._system_exception(
                connection, message, f"no POA {poa_name!r}"
            )
            return
        poa.dispatch(connection, message)

    def send_reply(
        self,
        connection: StreamConnection,
        request_id: int,
        body: bytes,
        opaques: Optional[list] = None,
        reply_status: ReplyStatus = NO_EXCEPTION,
    ) -> None:
        message = GiopMessage.reply(
            request_id, body, opaques=opaques, reply_status=reply_status
        )
        encoded, sidecar = message.encode()
        wire_bytes = len(encoded) + sum(o.nbytes for o in sidecar)
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.begin("orb", "reply.transfer", span=f"rxfer:{request_id}",
                         request=request_id,
                         fields={"bytes": wire_bytes,
                                 "status": reply_status._name_})
        connection.send_message((encoded, sidecar), wire_bytes)

    def _system_exception(
        self, connection: StreamConnection, request: GiopMessage, reason: str
    ) -> None:
        if not request.response_expected:
            return
        out = CdrOutputStream()
        out.write_string(reason)
        self.send_reply(
            connection,
            request.request_id,
            out.getvalue(),
            reply_status=SYSTEM_EXCEPTION,
        )

    def connections(self) -> List[StreamConnection]:
        """Every connection this ORB holds: the ones it opened to send
        requests, then the ones its listener accepted."""
        return [*self._connections.values(),
                *self._listener.connections.values()]

    def shutdown(self) -> None:
        """Close the acceptor and all cached connections."""
        self._listener.close()
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Orb {self.host.name}:{self.port}>"


def _decode_error(message: GiopMessage) -> str:
    try:
        return CdrInputStream(message.body).read_string()
    except Exception:  # noqa: BLE001 - diagnostic path
        return "unknown system exception"
