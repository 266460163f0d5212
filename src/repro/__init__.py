"""repro: flexible and adaptive QoS control for DRE middleware.

A comprehensive reproduction of Schantz, Loyall, Rodrigues, Schmidt,
Krishnamurthy & Pyarali, "Flexible and Adaptive QoS Control for
Distributed Real-time and Embedded Middleware" (Middleware 2003).

The stack is :data:`PACKAGE_ORDER`, bottom to top: a module imports,
at module level, only from its own package and the ones listed before
it, so the package graph has no cycles (``tests/test_layers.py``).

Start with ``examples/quickstart.py`` or ``python -m repro run fig4``.
"""

__version__ = "1.0.0"

#: Every subpackage (and the ``cli`` front end), bottom to top: the
#: paper's Fig 1 layers as code.  Not :data:`repro.obs.LAYERS`, which
#: names the layers trace records come from.
PACKAGE_ORDER = (
    ("sim", "deterministic discrete-event kernel: the clock everything "
            "runs on"),
    ("obs", "structured tracing every layer emits into, latency "
            "breakdowns and the series statistics they report"),
    ("oskernel", "hosts, preemptive fixed-priority CPUs, resource-kernel "
                 "CPU reserves (TimeSys Linux model)"),
    ("net", "links, routers, DiffServ / IntServ-RSVP / RED-ECN queueing, "
            "link-state routing, datagram and stream transports"),
    ("fluid", "rate-based flow aggregates sharing the packet links"),
    ("orb", "a miniature CORBA ORB with RT-CORBA: real CDR/GIOP bytes, "
            "POA, IDL compiler, priority mappings, thread pools"),
    ("services", "common object services: naming, RT events, static "
                 "scheduling"),
    ("avstreams", "the CORBA A/V Streaming Service with RSVP attachment"),
    ("quo", "Quality Objects: contracts, system conditions, delegates, "
            "qoskets"),
    ("media", "MPEG-like streams, frame filtering, PPM images, edge "
              "detectors"),
    ("core", "the paper's contribution: end-to-end priority- and "
             "reservation-based QoS management plus adaptation"),
    ("scale", "reserve-based admission control over CPU and link budgets"),
    ("pubsub", "DDS-style publish-subscribe with declarative QoS"),
    ("faults", "fault plans and the injector that applies them"),
    ("check", "runtime invariant checkers fed by the tracer"),
    ("experiments", "every figure and table, the testbed they build on, "
                    "the run engine and the soak campaign"),
    ("cli", "``python -m repro``: run, verify, soak, trace"),
)
