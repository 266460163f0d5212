"""Experiment harness: every figure and table, and what runs them.

The figures, one module each (arms, scenario, renderer and claims):

``priority_exp``
    The section 5.1 testbed — two video senders, a DiffServ-capable
    router, a cross-traffic generator, CPU load — parameterized into
    the Fig 4 / Fig 5 / Fig 6 arms.
``reservation_net_exp``
    The section 5.2 network-reservation testbed — one video flow under
    a 43.8 Mbps load burst, with {none, partial, full} RSVP
    reservations x {off, on} frame filtering (Fig 7, Table 1).
``reservation_cpu_exp``
    The section 5.2 CPU-reservation testbed — a CORBA ATR server
    running Kirsch/Prewitt/Sobel per image under competing CPU load,
    with and without a TimeSys-style reserve (Table 2).
``fault_exp`` / ``route_exp``
    Fig 8's fault gauntlet, and fig 11's backbone cut on generated
    graphs.
``capacity_exp`` / ``scale_exp`` / ``pubsub_exp``
    Fig 9's multi-stream capacity farm behind admission, fig 10's
    hybrid packet/fluid scale sweep, and fig 12's pub-sub fan-out.
``ablations``
    The four ablation rows.

What they share and what runs them:

``actors`` / ``testbed`` / ``arm``
    Application building blocks (video senders and receivers, the ATR
    servant); the one :class:`~repro.experiments.testbed.Testbed`
    every scenario builds on; the base class of the ``*Arm`` types.
``reporting``
    Paper-style text rendering of the results.
``scenario_registry``
    The figure table: every scenario registered and every
    ``results/<name>.txt`` declared once (arms, sweep, timeline, seed,
    renderer).
``runner`` / ``soak``
    The parallel, cached run engine, and the randomized soak campaign
    over the figures under the invariant checkers.
``scenarios``
    The example scenarios (``quickstart``, ``uav``), registered in the
    figure table's registry and run by ``examples/``.
"""
