"""CORBA Audio/Video Streaming Service (simplified).

The paper "utilize[s] the CORBA A/V Streaming Service to set up the
(video stream) paths between the communicating CORBA objects.
Integrated with that is the ability to attach an RSVP reservation to
the underlying network connection as it is set up."

This package reproduces that role:

* control plane — :class:`MMDeviceServant` objects exported through
  the ORB; a :class:`StreamCtrl` binds a producer device to a consumer
  device with real CORBA calls;
* data plane — :class:`FlowProducer` / :class:`FlowConsumer` endpoints
  moving video frames over UDP-like datagrams (so congestion loss is
  frame loss, as in the testbed);
* QoS binding — ``StreamCtrl.bind`` takes a plain DSCP (DiffServ arm)
  and/or an RSVP :class:`~repro.net.intserv.FlowSpec` (IntServ arm);
  reservations are signaled during ``bind`` before any frame flows.
  Which ones a stream gets is decided above this package, by
  :class:`repro.core.manager.EndToEndQoSManager`.
"""

from repro.avstreams.endpoints import FlowConsumer, FlowProducer
from repro.avstreams.service import (
    AvStreamsError,
    MMDeviceServant,
    StreamBinding,
    StreamCtrl,
)

__all__ = [
    "AvStreamsError",
    "FlowConsumer",
    "FlowProducer",
    "MMDeviceServant",
    "StreamBinding",
    "StreamCtrl",
]
