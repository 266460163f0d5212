"""Micro-benchmarks: each layer's public functions timed in isolation.

    PYTHONPATH=src python3 perf/micro.py [--min-seconds 1] [--repeats 5]
                                         [--only NAME] [--json]

Every benchmark builds its objects outside the timed region, runs one
fixed batch, and returns ``(operations, seconds)``.  A sample repeats
the batch until ``--min-seconds`` have been timed; the reported rate is
the median of ``--repeats`` samples.  These numbers say how fast a
layer is on its own; whether that matters is what the workloads'
``self_share`` says.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, Tuple

Batch = Tuple[float, float]  # (operations, timed seconds)
HERE = os.path.dirname(os.path.abspath(__file__))


def _timed(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def sim_raw_events() -> Batch:
    """The schedule/rearm/cancel mix of benchmarks/test_core_throughput."""
    from repro.sim import Kernel, PeriodicTicker

    kernel = Kernel()

    def flow(period: float) -> None:
        def fire() -> None:
            kernel.rearm(event, period)
        event = kernel.schedule(period, fire)

    def churn() -> None:
        pending = [None]

        def fire() -> None:
            if pending[0] is not None:
                pending[0].cancel()
            pending[0] = kernel.schedule(5.0, lambda: None)
            kernel.schedule(0.002, fire)
        kernel.schedule(0.001, fire)

    for i in range(64):
        flow(0.0008 + i * 1e-5)
    ticker = PeriodicTicker(kernel, 1 / 30.0)
    for _ in range(32):
        ticker.subscribe(lambda now: None)
    ticker.start()
    for _ in range(8):
        churn()
    seconds = _timed(lambda: kernel.run(until=1.0))
    return kernel.events_executed, seconds


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
def net_qdisc_ops() -> Batch:
    """DiffServQueue and GuaranteedRateQueue enqueue + dequeue."""
    from repro.net import Dscp, GuaranteedRateQueue
    from repro.net.packet import Packet, Protocol
    from repro.net.queues import DiffServQueue
    from repro.sim import Kernel

    kernel = Kernel()
    diffserv = DiffServQueue(band_capacity=64)
    intserv = GuaranteedRateQueue(kernel, band_capacity=64)
    intserv.install_reservation("video", rate_bps=1e9, depth_bytes=10**9)
    marks = (Dscp.EF, Dscp.AF41, Dscp.AF13, Dscp.BE)
    packets = [Packet("a", "b", 1, 2, Protocol.UDP, payload_bytes=1200,
                      dscp=marks[i % 4],
                      flow_id="video" if i % 2 else None)
               for i in range(128)]

    def batch() -> None:
        for _ in range(200):
            for qdisc in (diffserv, intserv):
                for packet in packets:
                    qdisc.enqueue(packet)
                while qdisc.dequeue() is not None:
                    pass

    seconds = _timed(batch)
    return diffserv.enqueued + diffserv.dequeued + intserv.enqueued \
        + intserv.dequeued + diffserv.dropped + intserv.dropped, seconds


def _two_hosts(tracer=None):
    """Two hosts on one link with a CBR source aimed across it."""
    from repro.net import Network
    from repro.net.packet import Protocol
    from repro.net.traffic import CbrTrafficSource
    from repro.oskernel import Host
    from repro.sim import Kernel

    kernel = Kernel()
    if tracer is not None:
        tracer.attach(kernel)
    net = Network(kernel, default_bandwidth_bps=100e6)
    hosts = [Host(kernel, "a"), Host(kernel, "b")]
    for host in hosts:
        net.attach_host(host)
    net.link("a", "b")
    net.compute_routes()
    net.nic_of("b").bind(Protocol.UDP, 9, lambda packet: None)
    source = CbrTrafficSource(kernel, net.nic_of("a"), "b", 80e6)
    return kernel, net, hosts, source


def net_link_pkts() -> Batch:
    """Packets carried host to host over one Link."""
    kernel, net, _, source = _two_hosts()
    source.start()
    seconds = _timed(lambda: kernel.run(until=1.0))
    return net.nic_of("b").delivered, seconds


# ----------------------------------------------------------------------
# oskernel
# ----------------------------------------------------------------------
def oskernel_submits() -> Batch:
    """CPU.submit where a reserved thread keeps preempting a plain one."""
    from repro.oskernel import Host
    from repro.oskernel.reserve import EnforcementPolicy
    from repro.sim import Kernel

    kernel = Kernel()
    host = Host(kernel, "h")
    low, high = host.priority_range
    background = host.spawn_thread("background", priority=low)
    reserved = host.spawn_thread("reserved", priority=high)
    host.reserve_manager.request(reserved, 0.002, 0.01,
                                 EnforcementPolicy.HARD)
    submits = 5000
    for i in range(submits // 2):
        at = i * 0.01
        kernel.schedule(at, host.cpu.submit, background, 0.006)
        kernel.schedule(at + 0.003, host.cpu.submit, reserved, 0.003)
    seconds = _timed(kernel.run)
    return submits, seconds


# ----------------------------------------------------------------------
# orb
# ----------------------------------------------------------------------
def orb_cdr() -> Batch:
    """CDR marshal + unmarshal of a small mixed record; MB moved."""
    from repro.orb import CdrInputStream, CdrOutputStream

    blob = bytes(1024)
    moved = 0

    def batch() -> None:
        nonlocal moved
        for i in range(8000):
            out = CdrOutputStream()
            out.write_ulong(i)
            out.write_double(i * 0.5)
            out.write_string("video/frame")
            out.write_octets(blob)
            data = out.getvalue()
            inp = CdrInputStream(data)
            inp.read_ulong()
            inp.read_double()
            inp.read_string()
            inp.read_octets()
            moved += 2 * len(data)

    seconds = _timed(batch)
    return moved / 1e6, seconds


def orb_invocations() -> Batch:
    """Two-way GIOP requests through a POA, client to server and back."""
    from repro.net import Network
    from repro.orb import Orb, compile_idl
    from repro.oskernel import Host
    from repro.sim import Kernel, Process

    idl = compile_idl("""
    module Perf { interface Echo { double echo(in double x); }; };
    """)["Perf::Echo"]

    class Servant(idl.skeleton_class):
        def echo(self, x):
            return x

    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=100e6)
    client, server = Host(kernel, "client"), Host(kernel, "server")
    for host in (client, server):
        net.attach_host(host)
    net.link("client", "server")
    net.compute_routes()
    ref = Orb(kernel, server, net).create_poa("perf").activate_object(
        Servant())
    stub = idl.stub_class(Orb(kernel, client, net), ref)
    calls = 500
    done = []

    def app():
        for i in range(calls):
            done.append((yield stub.echo(float(i))))

    Process(kernel, app(), name="perf-echo")
    seconds = _timed(kernel.run)
    if done != [float(i) for i in range(calls)]:
        raise RuntimeError("echo servant returned the wrong values")
    return calls, seconds


# ----------------------------------------------------------------------
# fluid, routing
# ----------------------------------------------------------------------
def fluid_rate_changes() -> Batch:
    """FluidEngine.set_rate with 1000 flows on one link, one per epoch."""
    from repro.fluid.engine import FluidEngine
    from repro.sim import Kernel

    kernel = Kernel()
    engine = FluidEngine(kernel)
    link = engine.add_link("bottleneck", 1e9)
    for i in range(1000):
        engine.add_flow(f"f{i}", 1.2e6, [link])
    kernel.run(until=0.01)
    changes = 40

    def batch() -> None:
        for i in range(changes):
            engine.set_rate(f"f{i}", 0.6e6 if i % 2 else 2.4e6)
            kernel.run(until=kernel.now + 0.01)

    before = engine.epochs
    seconds = _timed(batch)
    if engine.epochs - before != changes:
        raise RuntimeError("expected one share recompute per rate change")
    return changes, seconds


def routing_spf_runs() -> Batch:
    """spf_first_hops over the fig 11 graph's 56-router LSDB."""
    from repro.net import Network
    from repro.net.routing import Lsa, spf_first_hops
    from repro.net.topology import generate_topology
    from repro.sim import Kernel

    net = Network(Kernel())
    graph = generate_topology(net, "waxman", 56, seed=1)
    peers: Dict[str, list] = {name: [] for name in graph.routers}
    for a, b in graph.links:
        peers[a].append((b, 1.0))
        peers[b].append((a, 1.0))
    lsdb = {name: Lsa(name, 1, tuple(sorted(edges)), (f"host-{name}",))
            for name, edges in peers.items()}

    def batch() -> None:
        for origin in graph.routers:
            spf_first_hops(lsdb, origin)

    return len(graph.routers), _timed(batch)


# ----------------------------------------------------------------------
# pubsub
# ----------------------------------------------------------------------
def pubsub_rxo_checks() -> Batch:
    from repro.pubsub.matching import rxo_check
    from repro.pubsub.policies import (Durability, OwnershipKind, QosPolicy,
                                       Reliability)

    offered = [QosPolicy(reliability=r, durability=d, ownership=o,
                         deadline=1 / 30, lease=0.6, latency_budget=0.02)
               for r in Reliability for d in Durability
               for o in OwnershipKind]
    requested = [policy.replace(deadline=0.1, lease=None)
                 for policy in offered]

    def batch() -> None:
        for _ in range(rounds):
            for a in offered:
                for b in requested:
                    rxo_check(a, b)

    rounds = 400
    return rounds * len(offered) * len(requested), _timed(batch)


def pubsub_filter_evals() -> Batch:
    from repro.pubsub.filters import ContentFilter

    class Sample:
        __slots__ = ("seq", "sent_at")

        def __init__(self, seq: int) -> None:
            self.seq = seq
            self.sent_at = seq / 30.0

    content_filter = ContentFilter("seq % 2 == 1 and sent_at >= 0.0")
    samples = [Sample(i) for i in range(5000)]

    def batch() -> None:
        for sample in samples:
            content_filter.matches(sample)

    seconds = _timed(batch)
    if content_filter.errors:
        raise RuntimeError("the filter expression failed to evaluate")
    return len(samples), seconds


def pubsub_dedup_ops() -> Batch:
    """DedupLedger.observe with reordering and duplicates, trim behind."""
    from repro.pubsub.dedup import DedupLedger

    ledger = DedupLedger()
    arrivals = []
    for base in range(0, 100000, 4):
        arrivals.extend((base + 2, base + 1, base + 2, base + 4, base + 3))

    def batch() -> None:
        for i, seq in enumerate(arrivals):
            ledger.observe(seq)
            if i % 160 == 0:
                ledger.trim(seq - 64)

    seconds = _timed(batch)
    if ledger.delivered != 100000:
        raise RuntimeError(f"ledger delivered {ledger.delivered} of 100000")
    return len(arrivals) + ledger.trims, seconds


# ----------------------------------------------------------------------
# check, obs
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _recorded_link_run() -> list:
    """Every trace record of one second of the two-host link run."""
    from repro.obs import RingBufferSink, Tracer

    sink = RingBufferSink(capacity=None)
    kernel, _, _, source = _two_hosts(Tracer(sinks=[sink]))
    source.start()
    kernel.run(until=1.0)
    return sink.records


def check_records() -> Batch:
    """CheckSuite dispatch: replay a recorded link run into the checkers."""
    from repro.check import World, default_suite

    records = _recorded_link_run()
    # A fresh, never-run twin: the checkers read balanced (zero) books.
    kernel, net, hosts, _ = _two_hosts()
    suite = default_suite()
    suite.install(World(kernel, network=net, hosts=hosts))

    def batch() -> None:
        for record in records:
            suite.emit(record)

    return len(records), _timed(batch)


def obs_emits() -> Batch:
    """Tracer.emit into a ring-buffer sink."""
    from repro.obs import RingBufferSink, Tracer

    tracer = Tracer(sinks=[RingBufferSink()])
    emits = 20000

    def batch() -> None:
        for i in range(emits):
            tracer.emit("net", "hop.tx", flow="video", packet=i,
                        iface="a->b")

    return emits, _timed(batch)


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _fig9_arm():
    """One small fig 9 arm's spec and payload, computed once."""
    from repro.experiments.runner import ExperimentRunner, RunSpec

    spec = RunSpec("capacity", {
        "arm": {"name": "reserves", "priorities": True,
                "admission": True, "adaptation": False},
        "streams": 8, "duration": 2.0}, seed=1)
    return spec, ExperimentRunner(jobs=1, cache=False).run_one(spec).payload


def experiments_cache_hit() -> Batch:
    """ResultCache store + load of one fig 9 payload (ms per pair)."""
    from repro.experiments.runner import ResultCache

    spec, payload = _fig9_arm()
    # Inside perf/out, as the benchmark may write only in its checkout.
    parent = os.path.join(HERE, "out")
    os.makedirs(parent, exist_ok=True)
    root = tempfile.mkdtemp(dir=parent, prefix="cache-")
    try:
        cache = ResultCache(root)
        key = ResultCache.key_for(spec, "perf-micro")
        pairs = 100

        def batch() -> None:
            for _ in range(pairs):
                cache.store(key, payload)
                hit, _ = cache.load(key)
                if not hit:
                    raise RuntimeError("stored payload did not load back")

        seconds = _timed(batch)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return pairs, seconds


#: metric name -> (batch function, how (ops, seconds) becomes the value)
RATE = "rate"
MS_EACH = "ms_each"
BENCHES: Dict[str, Tuple[Callable[[], Batch], str]] = {
    "sim.raw_events_per_s": (sim_raw_events, RATE),
    "net.qdisc_ops_per_s": (net_qdisc_ops, RATE),
    "net.link_pkts_per_s": (net_link_pkts, RATE),
    "oskernel.submits_per_s": (oskernel_submits, RATE),
    "orb.cdr_mb_per_s": (orb_cdr, RATE),
    "orb.invocations_per_s": (orb_invocations, RATE),
    "fluid.rate_changes_per_s": (fluid_rate_changes, RATE),
    "routing.spf_runs_per_s": (routing_spf_runs, RATE),
    "pubsub.rxo_checks_per_s": (pubsub_rxo_checks, RATE),
    "pubsub.filter_evals_per_s": (pubsub_filter_evals, RATE),
    "pubsub.dedup_ops_per_s": (pubsub_dedup_ops, RATE),
    "check.records_per_s": (check_records, RATE),
    "obs.emits_per_s": (obs_emits, RATE),
    "experiments.cache_hit_ms": (experiments_cache_hit, MS_EACH),
}


def measure(name: str, min_seconds: float, repeats: int) -> float:
    batch, kind = BENCHES[name]
    samples = []
    for _ in range(repeats):
        operations = seconds = 0.0
        while seconds < min_seconds:
            ops, took = batch()
            operations += ops
            seconds += took
        samples.append(operations / seconds if kind == RATE
                       else 1e3 * seconds / operations)
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--min-seconds", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--only", choices=list(BENCHES))
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object as the last line")
    args = parser.parse_args()
    names = [args.only] if args.only else list(BENCHES)
    values = {}
    for name in names:
        values[name] = measure(name, args.min_seconds, args.repeats)
        if not args.json:
            print(f"{name:<28} {values[name]:.6g}")
    if args.json:
        print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
