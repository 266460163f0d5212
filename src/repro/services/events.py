"""A real-time event channel (TAO RT Event Service flavour).

Suppliers push :class:`Event` objects to a channel; the channel fans
each event out to the consumers whose subscriptions match its type.
Decoupling is the point: suppliers know nothing about consumers, and
the channel — not the supplier — pays the fan-out cost, on its own
host's prioritized thread pools.

Real-time aspects reproduced from TAO's design:

* every event carries a CORBA priority in its header; the channel
  dispatches the fan-out at that priority (CLIENT_PROPAGATED through
  the channel POA), so urgent events overtake bulk telemetry inside
  the channel host;
* consumers subscribe with *type filters*, evaluated at the channel,
  so unwanted events never cross the network;
* per-consumer delivery is oneway — a slow consumer cannot stall the
  channel or other consumers.
"""

from __future__ import annotations

import itertools
from typing import Dict, Generator, List, Optional, Tuple

from repro.orb.cdr import CdrInputStream, CdrOutputStream, OpaquePayload
from repro.orb.core import Orb, raise_if_error
from repro.orb.ior import ObjectReference
from repro.orb.poa import Servant


class Event:
    """One event: a typed header plus opaque application data."""

    __slots__ = ("event_type", "priority", "source", "timestamp", "data",
                 "nbytes")

    def __init__(
        self,
        event_type: str,
        data=None,
        priority: int = 0,
        source: str = "",
        timestamp: float = 0.0,
        nbytes: int = 256,
    ) -> None:
        self.event_type = event_type
        self.priority = int(priority)
        self.source = source
        self.timestamp = timestamp
        self.data = data
        self.nbytes = int(nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Event {self.event_type!r} "
            f"prio={self.priority}>"
        )


class EventConsumerServant(Servant):
    """Consumer-side sink: forwards pushed events to a local callback."""

    def __init__(self, callback=None, name: str = "consumer") -> None:
        self.callback = callback
        self.name = name
        self.received: List[Event] = []

    def push(self, event: Event) -> bool:
        self.received.append(event)
        if self.callback is not None:
            self.callback(event)
        return True


class EventChannelServant(Servant):
    """The channel: subscription registry plus fan-out dispatch."""

    def __init__(self, orb: Orb) -> None:
        self.orb = orb
        # subscription id -> (consumer ref, type filter or None)
        self._subscriptions: Dict[int, Tuple[ObjectReference,
                                             Optional[List[str]]]] = {}
        self._subscription_ids = itertools.count(1)
        self.events_in = 0
        self.events_out = 0
        self.events_filtered = 0

    # -- remote operations ---------------------------------------------------
    def subscribe(
        self,
        consumer_ref: ObjectReference,
        event_types: Optional[List[str]] = None,
    ) -> int:
        """Register a consumer; returns its subscription id."""
        subscription_id = next(self._subscription_ids)
        self._subscriptions[subscription_id] = (consumer_ref, event_types)
        return subscription_id

    def unsubscribe(self, subscription_id: int) -> bool:
        return self._subscriptions.pop(subscription_id, None) is not None

    def push(self, event: Event):
        """Supplier entry point: fan the event out (generator)."""
        self.events_in += 1
        thread = self.orb.current_dispatch_thread
        for consumer_ref, event_types in list(self._subscriptions.values()):
            if event_types is not None and event.event_type not in event_types:
                self.events_filtered += 1
                continue
            out = CdrOutputStream()
            out.write_opaque(OpaquePayload(((event,), {}),
                                           nbytes=event.nbytes))
            ack = self.orb.invoke(
                consumer_ref,
                "push",
                out.getvalue(),
                opaques=out.opaques,
                thread=thread,
                priority=event.priority,
                response_expected=False,  # oneway: no slow-consumer stall
            )
            self.events_out += 1
            yield ack
        return self.events_out

    @property
    def subscription_count(self) -> int:
        return len(self._subscriptions)


class EventProxy:
    """Supplier/admin helper: typed calls to a remote channel.

    Methods are generators; drive with ``yield from``.
    """

    def __init__(self, orb: Orb, channel_ref: ObjectReference,
                 thread=None) -> None:
        self.orb = orb
        self.channel_ref = channel_ref
        self.thread = thread

    def subscribe(self, consumer_ref: ObjectReference,
                  event_types: Optional[List[str]] = None) -> Generator:
        return self._call("subscribe", consumer_ref, event_types)

    def unsubscribe(self, subscription_id: int) -> Generator:
        return self._call("unsubscribe", subscription_id)

    def push(self, event: Event) -> Generator:
        """Push with the event's own priority propagated to the channel."""
        out = CdrOutputStream()
        out.write_opaque(OpaquePayload(((event,), {}), nbytes=event.nbytes))
        reply = yield self.orb.invoke(
            self.channel_ref, "push", out.getvalue(), opaques=out.opaques,
            thread=self.thread, priority=event.priority,
        )
        raise_if_error(reply)
        inp = CdrInputStream(reply.body, reply.opaques)
        return inp.read_opaque().value

    def _call(self, operation: str, *args) -> Generator:
        out = CdrOutputStream()
        out.write_opaque(OpaquePayload((args, {}), nbytes=128))
        reply = yield self.orb.invoke(
            self.channel_ref, operation, out.getvalue(),
            opaques=out.opaques, thread=self.thread,
        )
        raise_if_error(reply)
        inp = CdrInputStream(reply.body, reply.opaques)
        return inp.read_opaque().value
