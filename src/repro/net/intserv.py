"""IntServ/RSVP: per-flow network reservations (paper section 3.4).

RSVP is a receiver-oriented signaling protocol: the sender announces a
flow with a PATH message that records state hop-by-hop; the receiver
answers with a RESV message that retraces the path in reverse, and at
every hop the router performs admission control and installs the
reservation (here: a token bucket feeding the guaranteed-rate queue on
the data-egress interface).  "Each intermediate router between the
source and destination host receives this signaling information, and
allocates enough resources to meet the required QoS."

Implemented messages: PATH, RESV, RESV_ERR, TEAR.  Setup-time loss is
survived by a bounded RESV retry, and teardown re-sends its TEAR a
bounded number of times so a single lost TEAR does not strand
``reserved_rate`` at transit routers.  State is installed once, not
soft: there is no periodic PATH/RESV refresh and nothing expires, so a
reservation lost to a link restore, a router reboot or a ``resv_loss``
fault comes back only when the sender re-signals
(:meth:`RsvpAgent.resignal`).

Fast reroute is make-before-break: after the routing layer
re-converges, :meth:`RsvpAgent.resignal` re-sends PATH under a bumped
*epoch*; the receiver answers with a RESV that installs along the new
egress, and only once the sender confirms does the receiver TEAR the
superseded epoch — forwarded hop-by-hop along the *old* reverse path,
so a late TEAR can never remove the new installation.  Installed rate
on an interface whose link dies is additionally released synchronously
(:meth:`RsvpAgent.on_link_down`), keeping the admission ledger exact
through crash/reroute/re-admit sequences.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.sim.kernel import Kernel, ScheduledEvent
from repro.sim.process import Signal
from repro.net.diffserv import Dscp
from repro.net.link import Interface
from repro.net.nic import Nic
from repro.net.packet import RSVP, Packet
from repro.net.queues import GuaranteedRateQueue
from repro.net.router import Router

#: Simulated size of RSVP control messages, in bytes.
_SIGNALING_BYTES = 200


class ReservationError(RuntimeError):
    """Admission control rejected a reservation along the path."""


class FlowSpec:
    """The reservation request: a token-bucket service specification."""

    __slots__ = ("rate_bps", "bucket_bytes")

    def __init__(self, rate_bps: float, bucket_bytes: int) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if bucket_bytes <= 0:
            raise ValueError(f"bucket must be positive, got {bucket_bytes}")
        self.rate_bps = float(rate_bps)
        self.bucket_bytes = int(bucket_bytes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"FlowSpec({self.rate_bps/1e3:.0f}kbps, {self.bucket_bytes}B)"


class _RsvpMsg:
    """Payload of an RSVP signaling packet.

    ``epoch`` is the make-before-break generation: re-signaling after a
    reroute bumps it, so state along the old path (and the TEAR that
    eventually removes it) can never clobber the new installation.
    """

    __slots__ = ("kind", "flow_id", "sender", "receiver", "flowspec",
                 "reason", "epoch")

    def __init__(
        self,
        kind: str,
        flow_id: str,
        sender: str,
        receiver: str,
        flowspec: Optional[FlowSpec] = None,
        reason: str = "",
        epoch: int = 0,
    ) -> None:
        self.kind = kind  # PATH | RESV | RESV_ERR | TEAR
        self.flow_id = flow_id
        self.sender = sender
        self.receiver = receiver
        self.flowspec = flowspec
        self.reason = reason
        self.epoch = epoch


class Reservation:
    """Receiver-side handle for one requested reservation.

    ``established`` is a :class:`~repro.sim.process.Signal` fired with
    ``True`` when the sender confirms installation, or ``False`` when a
    RESV_ERR arrives / retries are exhausted.
    """

    MAX_ATTEMPTS = 5
    RETRY_INTERVAL = 1.0

    def __init__(self, kernel: Kernel, flow_id: str, flowspec: FlowSpec) -> None:
        self.kernel = kernel
        self.flow_id = flow_id
        self.flowspec = flowspec
        self.state = "pending"  # pending | established | failed | torn_down
        self.failure_reason = ""
        self.established = Signal(kernel, name=f"resv-{flow_id}")
        self.attempts = 0
        self._retry_event: Optional[ScheduledEvent] = None

    @property
    def is_established(self) -> bool:
        return self.state == "established"

    def _conclude(self, state: str, reason: str = "") -> None:
        if self.state != "pending":
            return
        self.state = state
        self.failure_reason = reason
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        self.established.fire(state == "established")


#: Path state stored per node: (toward-sender iface, data-egress iface).
_PathState = Tuple[Optional[Interface], Optional[Interface]]


class RsvpAgent:
    """RSVP processing for one device (router or host NIC).

    Routers do transit processing (admission + installation); host
    agents originate PATH (sender side) and RESV (receiver side).
    """

    #: Extra TEAR transmissions after the first (lost-TEAR hardening).
    TEAR_RESENDS = 2
    TEAR_RESEND_INTERVAL = 0.5

    def __init__(
        self,
        kernel: Kernel,
        device: Union[Router, Nic],
        utilization_bound: float = 0.9,
    ) -> None:
        self.kernel = kernel
        self.device = device
        self.utilization_bound = float(utilization_bound)
        self._packet_id = kernel.ids("packet")
        # flow_id -> path state
        self._path_state: Dict[str, _PathState] = {}
        # interface -> {flow_id: reserved rate}
        self._reserved: Dict[Interface, Dict[str, float]] = {}
        # receiver side: flow_id -> Reservation
        self.reservations: Dict[str, Reservation] = {}
        # sender side: flow_id -> receiver host (announced sessions)
        self._announced: Dict[str, str] = {}
        # flow_id -> sender host name, learned from PATH messages
        self._flow_sender: Dict[str, str] = {}
        # flow_id -> current make-before-break epoch
        self._flow_epoch: Dict[str, int] = {}
        # flow_id -> (epoch, toward-sender, data-egress) of the path a
        # newer epoch superseded; kept so the old path's TEAR can be
        # forwarded hop-by-hop along the route it actually took.
        self._prev_path: Dict[str, Tuple[int, Optional[Interface],
                                         Optional[Interface]]] = {}
        device.rsvp_agent = self

    # ------------------------------------------------------------------
    # Host-side API
    # ------------------------------------------------------------------
    def announce_path(self, flow_id: str, receiver_host: str) -> None:
        """Sender side: emit a PATH message describing the flow."""
        nic = self._nic()
        self._announced[flow_id] = receiver_host
        msg = _RsvpMsg("PATH", flow_id, sender=nic.host.name,
                       receiver=receiver_host,
                       epoch=self._flow_epoch.setdefault(flow_id, 0))
        self._emit(msg, dst=receiver_host)

    def resignal(self, flow_id: str) -> None:
        """Sender side: re-announce ``flow_id`` under a bumped epoch.

        The make-before-break entry point (typically driven by SPF
        convergence): the new PATH records state along the *current*
        routes, the receiver answers with a RESV that installs on the
        new path, and once the sender confirms, the receiver tears the
        superseded path down behind it.
        """
        receiver_host = self._announced.get(flow_id)
        if receiver_host is None:
            return
        epoch = self._flow_epoch.get(flow_id, 0) + 1
        self._flow_epoch[flow_id] = epoch
        tracer = self.kernel.tracer
        if tracer is not None:
            tracer.instant("net", "rsvp.resignal", flow=f"rsvp:{flow_id}",
                           fields={"node": self._name(), "epoch": epoch})
        msg = _RsvpMsg("PATH", flow_id, sender=self._nic().host.name,
                       receiver=receiver_host, epoch=epoch)
        self._emit(msg, dst=receiver_host)

    def resignal_all(self) -> None:
        """Re-announce every announced flow (deterministic order)."""
        for flow_id in sorted(self._announced):
            self.resignal(flow_id)

    def reserve(self, flow_id: str, flowspec: FlowSpec) -> Reservation:
        """Receiver side: request a reservation for an announced flow.

        Requires that a PATH for ``flow_id`` has already arrived (i.e.
        path state exists here); raises :class:`ReservationError`
        otherwise.
        """
        if flow_id not in self._path_state:
            raise ReservationError(
                f"no PATH state for flow {flow_id!r} at {self._name()}"
            )
        reservation = Reservation(self.kernel, flow_id, flowspec)
        self.reservations[flow_id] = reservation
        self._send_resv(reservation)
        return reservation

    def teardown(self, flow_id: str) -> None:
        """Receiver side: remove the reservation along the path.

        TEAR is unreliable; to keep one lost TEAR from stranding
        ``reserved_rate`` at transit routers, it is re-sent
        ``TEAR_RESENDS`` times.  Nothing expires, so a transit router
        that misses every copy keeps the rate booked.
        """
        reservation = self.reservations.get(flow_id)
        if reservation is not None and reservation.state == "established":
            reservation.state = "torn_down"
        sender = self._sender_of(flow_id)
        self._remove_local(flow_id)
        toward_sender, _ = self._path_state.get(flow_id, (None, None))
        self._send_tear(flow_id, sender, toward_sender,
                        epoch=self._flow_epoch.get(flow_id, 0),
                        resends_left=self.TEAR_RESENDS)

    def _send_tear(
        self,
        flow_id: str,
        sender: str,
        toward_sender: Optional[Interface],
        epoch: int,
        resends_left: int,
    ) -> None:
        msg = _RsvpMsg("TEAR", flow_id, sender=sender,
                       receiver=self._name(), epoch=epoch)
        self._forward_out(msg, toward_sender, dst=sender)
        if resends_left > 0:
            self.kernel.schedule(
                self.TEAR_RESEND_INTERVAL, self._send_tear, flow_id,
                sender, toward_sender, epoch, resends_left - 1)

    # ------------------------------------------------------------------
    # Message processing
    # ------------------------------------------------------------------
    def handle_transit(self, packet: Packet, ingress: Interface) -> None:
        """Router interception of any RSVP packet."""
        msg: _RsvpMsg = packet.payload
        router = self.device
        assert isinstance(router, Router)
        if msg.kind == "PATH":
            flow_id = msg.flow_id
            current_epoch = self._flow_epoch.get(flow_id)
            if current_epoch is None or msg.epoch >= current_epoch:
                if current_epoch is not None and msg.epoch > current_epoch:
                    old = self._path_state.get(flow_id)
                    if old is not None:
                        self._prev_path[flow_id] = (
                            current_epoch, old[0], old[1])
                self._flow_epoch[flow_id] = msg.epoch
                egress = router.egress_for(msg.receiver)
                self._path_state[flow_id] = (ingress, egress)
                self._flow_sender[flow_id] = msg.sender
            router.forward(packet)
        elif msg.kind == "RESV":
            if msg.epoch < self._flow_epoch.get(msg.flow_id, 0):
                return  # stale RESV from a superseded path epoch
            self._transit_resv(msg)
        elif msg.kind == "TEAR":
            flow_id = msg.flow_id
            if msg.epoch >= self._flow_epoch.get(flow_id, 0):
                toward_sender, _ = self._path_state.pop(
                    flow_id, (None, None)
                )
                self._remove_local(flow_id)
                self._prev_path.pop(flow_id, None)
                self._flow_epoch.pop(flow_id, None)
                self._forward_out(msg, toward_sender, dst=msg.sender)
            else:
                # Make-before-break: a TEAR for the superseded epoch.
                # Release only what that epoch installed here (never
                # the live egress) and pass it along the *old* reverse
                # path; resends stay idempotent because the previous-
                # path record survives until the next epoch bump.
                prev = self._prev_path.get(flow_id)
                if prev is not None and msg.epoch >= prev[0]:
                    _, prev_toward, prev_egress = prev
                    live = self._path_state.get(flow_id)
                    if prev_egress is not None and (
                            live is None or prev_egress is not live[1]):
                        self._remove_on(prev_egress, flow_id)
                    self._forward_out(msg, prev_toward, dst=msg.sender)
        else:
            # RESV_ERR, RESV_CONF and any future end-to-end kinds are
            # transparent to transit routers.
            router.forward(packet)

    def handle_local(
        self, packet: Packet, ingress: Optional[Interface] = None
    ) -> None:
        """Host-side delivery of an RSVP packet addressed to this host."""
        msg: _RsvpMsg = packet.payload
        nic = self._nic()
        if msg.kind == "PATH":
            # Remember where the flow comes from; data egress is None
            # (we are the data sink).
            flow_id = msg.flow_id
            current_epoch = self._flow_epoch.get(flow_id)
            if current_epoch is not None and msg.epoch < current_epoch:
                return
            bumped = current_epoch is not None and msg.epoch > current_epoch
            if bumped:
                old = self._path_state.get(flow_id)
                if old is not None:
                    self._prev_path[flow_id] = (current_epoch, old[0], old[1])
            toward_sender = ingress or nic.egress_for(msg.sender)
            self._flow_epoch[flow_id] = msg.epoch
            self._path_state[flow_id] = (toward_sender, None)
            self._flow_sender[flow_id] = msg.sender
            if bumped:
                # Make-before-break: the sender re-announced after a
                # reroute; answer immediately with a RESV that installs
                # along the new path.
                reservation = self.reservations.get(flow_id)
                if reservation is not None and reservation.is_established:
                    self._resignal_resv(flow_id)
        elif msg.kind == "RESV":
            if msg.epoch < self._flow_epoch.get(msg.flow_id, 0):
                return
            # We are the data sender: install policing on our own
            # egress toward the receiver so conforming traffic is
            # protected from the first hop on, then confirm to the
            # receiver's reservation.
            assert msg.flowspec is not None
            self._install(
                nic.egress_for(msg.receiver), msg.flow_id, msg.flowspec
            )
            confirm = _RsvpMsg("RESV_CONF", msg.flow_id, sender=msg.sender,
                               receiver=msg.receiver, flowspec=msg.flowspec,
                               epoch=msg.epoch)
            self._emit(confirm, dst=msg.receiver)
        elif msg.kind == "RESV_CONF":
            reservation = self.reservations.get(msg.flow_id)
            if reservation is not None:
                reservation._conclude("established")
            prev = self._prev_path.get(msg.flow_id)
            if prev is not None \
                    and msg.epoch == self._flow_epoch.get(msg.flow_id, 0):
                # The new path is confirmed installed end-to-end: tear
                # the superseded one down behind it.
                self._prev_path.pop(msg.flow_id)
                prev_epoch, prev_toward, _ = prev
                self._send_tear(msg.flow_id, self._sender_of(msg.flow_id),
                                prev_toward, epoch=prev_epoch,
                                resends_left=self.TEAR_RESENDS)
        elif msg.kind == "RESV_ERR":
            reservation = self.reservations.get(msg.flow_id)
            if reservation is not None:
                reservation._conclude("failed", msg.reason)
        elif msg.kind == "TEAR":
            if msg.epoch < self._flow_epoch.get(msg.flow_id, 0):
                return
            self._remove_local(msg.flow_id)
            self._path_state.pop(msg.flow_id, None)
            self._announced.pop(msg.flow_id, None)
            self._prev_path.pop(msg.flow_id, None)
            self._flow_epoch.pop(msg.flow_id, None)

    # ------------------------------------------------------------------
    # RESV processing helpers
    # ------------------------------------------------------------------
    def _send_resv(self, reservation: Reservation) -> None:
        if reservation.state != "pending":
            return
        if reservation.attempts >= Reservation.MAX_ATTEMPTS:
            reservation._conclude("failed", "retries exhausted")
            return
        reservation.attempts += 1
        sender = self._sender_of(reservation.flow_id)
        msg = _RsvpMsg(
            "RESV",
            reservation.flow_id,
            sender=sender,
            receiver=self._name(),
            flowspec=reservation.flowspec,
            epoch=self._flow_epoch.get(reservation.flow_id, 0),
        )
        toward_sender, _ = self._path_state[reservation.flow_id]
        self._forward_out(msg, toward_sender, dst=sender)
        reservation._retry_event = self.kernel.schedule(
            Reservation.RETRY_INTERVAL, self._send_resv, reservation
        )

    def _resignal_resv(self, flow_id: str) -> None:
        """Receiver side: re-send RESV for an established flow after a
        make-before-break PATH bumped the epoch (installs along the
        new path; the old path is torn once the sender confirms)."""
        reservation = self.reservations[flow_id]
        sender = self._sender_of(flow_id)
        msg = _RsvpMsg("RESV", flow_id, sender=sender,
                       receiver=self._name(),
                       flowspec=reservation.flowspec,
                       epoch=self._flow_epoch.get(flow_id, 0))
        toward_sender, _ = self._path_state[flow_id]
        self._forward_out(msg, toward_sender, dst=sender)

    def _transit_resv(self, msg: _RsvpMsg) -> None:
        state = self._path_state.get(msg.flow_id)
        if state is None:
            self._send_error(msg, "no path state")
            return
        toward_sender, data_egress = state
        assert msg.flowspec is not None
        if data_egress is not None:
            try:
                self._install(data_egress, msg.flow_id, msg.flowspec)
            except ReservationError as exc:
                self._send_error(msg, str(exc))
                return
        self._forward_out(msg, toward_sender, dst=msg.sender)

    def _send_error(self, msg: _RsvpMsg, reason: str) -> None:
        error = _RsvpMsg("RESV_ERR", msg.flow_id, sender=msg.sender,
                         receiver=msg.receiver, reason=reason)
        if isinstance(self.device, Router):
            packet = self._make_packet(error, dst=msg.receiver)
            self.device.forward(packet)
        else:
            self._emit(error, dst=msg.receiver)

    # ------------------------------------------------------------------
    # Installation / removal
    # ------------------------------------------------------------------
    def _install(
        self, interface: Interface, flow_id: str, flowspec: FlowSpec
    ) -> None:
        qdisc = interface.qdisc
        if not isinstance(qdisc, GuaranteedRateQueue):
            raise ReservationError(
                f"interface {interface.name!r} does not support reservations"
            )
        assert interface.link is not None
        capacity = interface.link.bandwidth_bps * self.utilization_bound
        table = self._reserved.setdefault(interface, {})
        committed = sum(
            rate for fid, rate in table.items() if fid != flow_id
        )
        if committed + flowspec.rate_bps > capacity + 1e-9:
            raise ReservationError(
                f"admission failed on {interface.name!r}: "
                f"{committed/1e6:.2f}+{flowspec.rate_bps/1e6:.2f} Mbps "
                f"> {capacity/1e6:.2f} Mbps"
            )
        table[flow_id] = flowspec.rate_bps
        qdisc.install_reservation(
            flow_id, flowspec.rate_bps, flowspec.bucket_bytes
        )

    def _remove_local(self, flow_id: str) -> None:
        for interface in self._reserved:
            self._remove_on(interface, flow_id)

    def _remove_on(self, interface: Interface, flow_id: str) -> None:
        """Release one flow's installed rate on one interface only."""
        table = self._reserved.get(interface)
        if table is None or flow_id not in table:
            return
        del table[flow_id]
        if isinstance(interface.qdisc, GuaranteedRateQueue):
            interface.qdisc.remove_reservation(flow_id)

    def reserved_rate(self, interface: Interface) -> float:
        """Total admitted rate on ``interface`` (observability)."""
        return sum(self._reserved.get(interface, {}).values())

    # ------------------------------------------------------------------
    # Fault-layer hooks
    # ------------------------------------------------------------------
    def on_link_down(self, interface: Interface) -> None:
        """Synchronously release installed rate on a dead egress.

        Called from :meth:`Link.fail`: the booked rate on an interface
        whose link just died leaves the admission ledger *now*, so
        ``reserved_rate`` never over-reports and a re-admission after
        reroute is not refused against phantom capacity.  Path state is
        kept; the rate comes back after restore only if the sender
        re-signals (:meth:`resignal`).
        """
        table = self._reserved.get(interface)
        if not table:
            return
        tracer = self.kernel.tracer
        for flow_id in list(table):
            self._remove_on(interface, flow_id)
            if tracer is not None:
                tracer.instant("net", "rsvp.release", flow=f"rsvp:{flow_id}",
                               fields={"node": self._name(),
                                       "reason": "link_down"})

    def drop_reservation_state(self, flow_id: str) -> None:
        """Silently lose the installed reservation for one flow.

        Path state is kept, so the next RESV for the flow (a
        :meth:`resignal` by its sender) re-installs the token bucket.
        The endpoints are not told: that silence is what the
        ``resv_loss`` fault models.
        """
        self._remove_local(flow_id)

    def drop_all_state(self) -> None:
        """Crash semantics: forget every flow this node knows about."""
        for flow_id in list(self._path_state):
            self._remove_local(flow_id)
        for table in self._reserved.values():
            for flow_id in list(table):
                del table[flow_id]
        for interface in self._reserved:
            if isinstance(interface.qdisc, GuaranteedRateQueue):
                for flow_id in list(interface.qdisc.reserved_flows()):
                    interface.qdisc.remove_reservation(flow_id)
        self._path_state.clear()
        self._flow_sender.clear()
        self._flow_epoch.clear()
        self._prev_path.clear()
        # A rebooted node's announced sessions die with it.
        self._announced.clear()
        self.reservations.clear()

    # ------------------------------------------------------------------
    # Emission plumbing
    # ------------------------------------------------------------------
    def _nic(self) -> Nic:
        if not isinstance(self.device, Nic):
            raise RuntimeError("host-side operation invoked on a router agent")
        return self.device

    def _name(self) -> str:
        if isinstance(self.device, Nic):
            return self.device.host.name
        return self.device.name

    def _sender_of(self, flow_id: str) -> str:
        sender = self._flow_sender.get(flow_id)
        if sender is not None:
            return sender
        # Fall back to the default flow-id convention "src:port->...".
        return flow_id.split(":", 1)[0]

    def _make_packet(self, msg: _RsvpMsg, dst: str) -> Packet:
        return Packet(
            src=self._name(),
            dst=dst,
            src_port=0,
            dst_port=0,
            protocol=RSVP,
            payload=msg,
            payload_bytes=_SIGNALING_BYTES,
            dscp=Dscp.CS6,
            flow_id=f"rsvp:{msg.flow_id}",
            created_at=self.kernel.now,
            packet_id=self._packet_id(),
        )

    def _emit(self, msg: _RsvpMsg, dst: str) -> None:
        nic = self._nic()
        packet = self._make_packet(msg, dst)
        nic.send(packet)

    def _forward_out(
        self, msg: _RsvpMsg, interface: Optional[Interface], dst: str
    ) -> None:
        packet = self._make_packet(msg, dst)
        if interface is None:
            # No recorded reverse interface: fall back to routing.
            if isinstance(self.device, Router):
                self.device.forward(packet)
            else:
                self._nic().send(packet)
            return
        interface.send(packet)
