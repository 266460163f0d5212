"""A/V stream control plane.

Each participating host exports one :class:`MMDeviceServant` through
its ORB.  A :class:`StreamCtrl` (anywhere in the system) binds a
producer device to a consumer device:

1. ``create_consumer`` on the sink device allocates a flow consumer
   and returns its port;
2. ``create_producer`` on the source device creates the flow producer
   aimed at that endpoint and, when the QoS asks for a reservation,
   announces the RSVP PATH;
3. ``reserve_flow`` on the sink device issues the RESV and waits for
   establishment — binding fails loudly if admission is denied and
   the caller marked the reservation mandatory.

All three are real CORBA requests (raw-dispatch servants), so stream
setup exercises the same middleware path as any other invocation.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.sim.kernel import Kernel
from repro.net.diffserv import Dscp
from repro.net.intserv import FlowSpec, ReservationError
from repro.orb.cdr import CdrInputStream, CdrOutputStream, OpaquePayload
from repro.orb.core import Orb, raise_if_error
from repro.orb.ior import ObjectReference
from repro.orb.poa import Servant
from repro.avstreams.endpoints import FlowConsumer, FlowProducer, flow_id_for


class AvStreamsError(RuntimeError):
    """Stream establishment / control failures."""


class MMDeviceServant(Servant):
    """Per-host multimedia device exported through the ORB.

    Uses raw dispatch; operations are invoked by :class:`StreamCtrl`.
    Local application code retrieves endpoints with :meth:`producer`
    and :meth:`consumer` after binding completes.
    """

    def __init__(self, kernel: Kernel, orb: Orb) -> None:
        self.kernel = kernel
        self.orb = orb
        self._producers: Dict[str, FlowProducer] = {}
        self._consumers: Dict[str, FlowConsumer] = {}

    # -- local accessors -------------------------------------------------
    def producer(self, flow_name: str) -> FlowProducer:
        return self._producers[flow_name]

    def consumer(self, flow_name: str) -> FlowConsumer:
        return self._consumers[flow_name]

    def has_flow(self, flow_name: str) -> bool:
        return flow_name in self._producers or flow_name in self._consumers

    # -- remote operations (raw dispatch) ---------------------------------
    def create_consumer(self, flow_name: str) -> int:
        """Allocate the sink endpoint; returns its port."""
        if flow_name in self._consumers:
            raise AvStreamsError(f"flow {flow_name!r} already has a consumer")
        consumer = FlowConsumer(self.kernel, self.orb.nic, flow_name)
        self._consumers[flow_name] = consumer
        return consumer.port

    def create_producer(
        self,
        flow_name: str,
        peer_host: str,
        peer_port: int,
        dscp_value: int,
        announce_reservation: bool,
    ) -> bool:
        """Create the source endpoint; optionally announce RSVP PATH."""
        if flow_name in self._producers:
            raise AvStreamsError(f"flow {flow_name!r} already has a producer")
        producer = FlowProducer(
            self.kernel,
            self.orb.nic,
            flow_name,
            peer_host,
            peer_port,
            dscp=Dscp(dscp_value),
        )
        self._producers[flow_name] = producer
        if announce_reservation:
            agent = self.orb.nic.rsvp_agent
            if agent is None:
                raise AvStreamsError(
                    f"host {self.orb.host.name!r} has no RSVP agent"
                )
            agent.announce_path(flow_id_for(flow_name), peer_host)
        return True

    def reserve_flow(self, flow_name: str, rate_bps: float, bucket_bytes: int):
        """Issue RESV for the flow; waits for the outcome (generator)."""
        agent = self.orb.nic.rsvp_agent
        if agent is None:
            raise AvStreamsError(
                f"host {self.orb.host.name!r} has no RSVP agent"
            )
        flow_id = flow_id_for(flow_name)
        flowspec = FlowSpec(rate_bps, bucket_bytes)
        # PATH state needs a beat to arrive if the bind raced it here.
        for _ in range(10):
            try:
                reservation = agent.reserve(flow_id, flowspec)
                break
            except ReservationError:
                yield 0.05
        else:
            return False
        if reservation.state == "pending":
            yield reservation.established
        return reservation.is_established

    def teardown_flow(self, flow_name: str) -> bool:
        """Release endpoints and any reservation for the flow."""
        producer = self._producers.pop(flow_name, None)
        if producer is not None:
            producer.close()
        consumer = self._consumers.pop(flow_name, None)
        if consumer is not None:
            agent = self.orb.nic.rsvp_agent
            if agent is not None and flow_id_for(flow_name) in agent.reservations:
                agent.teardown(flow_id_for(flow_name))
            consumer.close()
        return True


class StreamBinding:
    """Result of a successful bind: the two device references, the flow
    name, and whether a reservation is active."""

    def __init__(
        self,
        flow_name: str,
        producer_device: ObjectReference,
        consumer_device: ObjectReference,
        reserved: bool,
    ) -> None:
        self.flow_name = flow_name
        self.producer_device = producer_device
        self.consumer_device = consumer_device
        self.reserved = reserved

    def __repr__(self) -> str:  # pragma: no cover
        return f"<StreamBinding {self.flow_name!r} reserved={self.reserved}>"


class StreamCtrl:
    """Binds flows between MMDevices with real CORBA calls.

    Methods are generators: drive them from a simulation process, e.g.
    ``binding = yield from ctrl.bind("video1", a_ref, b_ref)``.
    """

    def __init__(self, kernel: Kernel, orb: Orb) -> None:
        self.kernel = kernel
        self.orb = orb

    # ------------------------------------------------------------------
    def bind(
        self,
        flow_name: str,
        producer_device: ObjectReference,
        consumer_device: ObjectReference,
        dscp: Dscp = Dscp.BE,
        reservation: Optional[FlowSpec] = None,
        mandatory: bool = True,
    ) -> Generator:
        """Establish one producer->consumer flow (A-party to B-party).

        Media packets carry ``dscp``.  With a ``reservation`` the flow's
        RSVP PATH/RESV is signaled before the bind returns; when it is
        not admitted a ``mandatory`` bind tears the flow down and
        raises, an optional one leaves it best-effort.
        """
        port = yield from self._call(
            consumer_device, "create_consumer", flow_name
        )
        yield from self._call(
            producer_device,
            "create_producer",
            flow_name,
            consumer_device.host,
            port,
            int(dscp),
            reservation is not None,
        )
        reserved = False
        if reservation is not None:
            reserved = yield from self._call(
                consumer_device,
                "reserve_flow",
                flow_name,
                reservation.rate_bps,
                reservation.bucket_bytes,
            )
            if not reserved and mandatory:
                yield from self._call(
                    producer_device, "teardown_flow", flow_name
                )
                yield from self._call(
                    consumer_device, "teardown_flow", flow_name
                )
                raise AvStreamsError(
                    f"reservation for flow {flow_name!r} was not admitted"
                )
        return StreamBinding(
            flow_name, producer_device, consumer_device, reserved
        )

    def unbind(
        self, binding: StreamBinding
    ) -> Generator:
        """Tear the flow down on both parties."""
        yield from self._call(
            binding.producer_device, "teardown_flow", binding.flow_name
        )
        yield from self._call(
            binding.consumer_device, "teardown_flow", binding.flow_name
        )

    # ------------------------------------------------------------------
    def _call(self, device: ObjectReference, operation: str, *args) -> Generator:
        """One raw-dispatch CORBA call, unwrapped."""
        out = CdrOutputStream()
        out.write_opaque(OpaquePayload((args, {}), nbytes=128))
        reply = yield self.orb.invoke(
            device, operation, out.getvalue(), opaques=out.opaques
        )
        raise_if_error(reply)
        inp = CdrInputStream(reply.body, reply.opaques)
        return inp.read_opaque().value
