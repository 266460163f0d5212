"""repro: flexible and adaptive QoS control for DRE middleware.

A comprehensive reproduction of Schantz, Loyall, Rodrigues, Schmidt,
Krishnamurthy & Pyarali, "Flexible and Adaptive QoS Control for
Distributed Real-time and Embedded Middleware" (Middleware 2003).

The stack, bottom to top (each is its own subpackage):

``repro.sim``
    Deterministic discrete-event kernel: the clock everything runs on.
``repro.oskernel``
    Hosts, preemptive fixed-priority CPUs, resource-kernel CPU
    reserves (TimeSys Linux model).
``repro.net``
    Links, routers, DiffServ / IntServ-RSVP / RED-ECN queueing, and
    UDP-like + TCP-like transports.
``repro.orb``
    A miniature CORBA ORB with RT-CORBA: real CDR/GIOP bytes, POA,
    IDL compiler, priority mappings (native + DSCP), thread pools.
``repro.services``
    Common object services: naming, RT events, static scheduling.
``repro.avstreams``
    The CORBA A/V Streaming Service with RSVP attachment.
``repro.quo``
    Quality Objects: contracts, system conditions (local and
    distributed), delegates, qoskets.
``repro.media``
    MPEG-like streams, frame filtering, PPM images, real edge
    detectors.
``repro.core``
    The paper's contribution: integrated end-to-end priority- and
    reservation-based QoS management plus adaptation.
``repro.experiments``
    Scenario builders regenerating every figure and table.

Start with ``examples/quickstart.py`` or ``python -m repro run fig4``.
"""

__version__ = "1.0.0"
