"""Property tests: strict priority and tail drop against exact queueing
results.

One ``Interface`` transmits fixed-size frames that arrive as Poisson
streams drawn from ``RngRegistry`` streams, so its egress is a single
server with deterministic service time ``S``:

* With a two-band ``DiffServQueue`` (EF ahead of best effort) and
  capacities nothing reaches, it is an M/D/1 queue with non-preemptive
  priority.  Cobham's formula gives band ``k``'s mean wait,
  ``W_k = R / ((1 - sigma_{k-1}) (1 - sigma_k))``, with
  ``R = sum_i lambda_i S^2 / 2`` the mean residual service and
  ``sigma_k`` the load of bands ``1..k``.  A frame's wait is its
  ``hop.dequeue`` time minus its ``hop.enqueue`` time.
* A ``FifoQueue`` of capacity ``c`` is an M/D/1/K system with
  ``K = c + 1``: the frame being transmitted has left the queue.  Its
  blocking probability is exact from the chain embedded at departures.

Each estimate is a batch mean over one long run after a warm-up, and
the exact value must lie in its 99 % Student-t interval.  The
mutants each test exists for: ``DiffServQueue.dequeue`` serving lanes
in the order they were built (the first frame is best effort, so that
lane is built first) turns the priority test red, and ``>`` for ``>=``
in ``FifoQueue.enqueue``'s tail test (one more place, K + 1) turns the
tail-drop test red.
"""

from itertools import count
from math import exp, factorial, sqrt

import pytest

from repro.net import DiffServQueue, Dscp, FifoQueue, Network, Packet, Protocol
from repro.obs import TraceSink, Tracer
from repro.oskernel import Host
from repro.sim import Kernel
from repro.sim.rng import RngRegistry

#: Link rate: a frame of ``FRAME_BYTES`` payload takes a few ms.
BANDWIDTH_BPS = 1e6
FRAME_BYTES = 500
#: Arrivals per run, the first ``WARMUP`` of them left out, the rest cut
#: into ``BATCHES`` batch means.
ARRIVALS = 24_000
WARMUP = 2_000
BATCHES = 20
#: Two-sided 99 % Student-t quantile at ``BATCHES - 1`` degrees of freedom.
T_99 = 2.861


def one_port(qdisc):
    """Kernel, sending interface (``qdisc`` on its egress) and the
    transmit time of one frame."""
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=BANDWIDTH_BPS)
    for name in ("a", "b"):
        net.attach_host(Host(kernel, name))
    net.link("a", "b", qdisc_a=qdisc)
    net.compute_routes()
    service = frame(Dscp.BE, 0).size_bits / BANDWIDTH_BPS
    return kernel, net.nic_of("a").interface, service


def frame(dscp, packet_id):
    return Packet("a", "b", 1, 9, Protocol.UDP, payload_bytes=FRAME_BYTES,
                  dscp=dscp, flow_id=dscp._name_, packet_id=packet_id)


def poisson(kernel, rng, rate, deliver, until):
    """Call ``deliver()`` at the epochs of a rate-``rate`` Poisson
    process from ``rng``, while the kernel's clock is below ``until``."""
    def arrive():
        deliver()
        gap = rng.expovariate(rate)
        if kernel.now + gap < until:
            kernel.schedule(gap, arrive)
    kernel.schedule(rng.expovariate(rate), arrive)


def batch_interval(samples):
    """(mean, half-width) of the 99 % batch-means interval."""
    size = len(samples) // BATCHES
    means = [sum(samples[i * size:(i + 1) * size]) / size
             for i in range(BATCHES)]
    grand = sum(means) / BATCHES
    variance = sum((m - grand) ** 2 for m in means) / (BATCHES - 1)
    return grand, T_99 * sqrt(variance / BATCHES)


# ----------------------------------------------------------------------
# (i) Strict priority: Cobham's non-preemptive M/G/1 waits
# ----------------------------------------------------------------------
class WaitSink(TraceSink):
    """Each frame's ``hop.dequeue`` time minus its ``hop.enqueue`` time."""

    def __init__(self):
        self.enqueued = {}
        self.waits = {}

    def emit(self, record):
        if record.kind == "hop.enqueue":
            self.enqueued[record.fields["packet"]] = record.time
        elif record.kind == "hop.dequeue":
            packet = record.fields["packet"]
            self.waits[packet] = record.time - self.enqueued.pop(packet)


def cobham_waits(rates, service):
    """Mean queueing wait per band, most-preferred band first."""
    residual = sum(rates) * service * service / 2
    waits, above = [], 0.0
    for rate in rates:
        below = above + rate * service
        waits.append(residual / ((1 - above) * (1 - below)))
        above = below
    return waits


def run_priority(load, ef_share, seed):
    kernel, iface, service = one_port(DiffServQueue(band_capacity=10**6))
    sink = WaitSink()
    Tracer(sinks=[sink], layers=["net"]).attach(kernel)
    rngs = RngRegistry(seed)
    rates = [load * ef_share / service, load * (1 - ef_share) / service]
    ids = count(1)
    band_of = {}

    def sender(dscp):
        def send():
            packet_id = next(ids)
            band_of[packet_id] = dscp
            iface.send(frame(dscp, packet_id))
        return send

    # A best-effort frame first: the BE lane is built before the EF one.
    kernel.schedule(0.0, sender(Dscp.BE))
    until = ARRIVALS / (load / service)
    for dscp, rate in zip((Dscp.EF, Dscp.BE), rates):
        poisson(kernel, rngs.stream(f"arrivals.{dscp._name_}"), rate,
                sender(dscp), until)
    kernel.run()
    assert not sink.enqueued  # every frame left the queue
    waits = {Dscp.EF: [], Dscp.BE: []}
    for packet_id in sorted(sink.waits):
        if packet_id > WARMUP:
            waits[band_of[packet_id]].append(sink.waits[packet_id])
    return [waits[Dscp.EF], waits[Dscp.BE]], cobham_waits(rates, service)


@pytest.mark.parametrize("ef_share", [0.5, 0.25])
@pytest.mark.parametrize("load", [0.5, 0.7, 0.85])
def test_strict_priority_waits_match_cobham(load, ef_share):
    samples, exact = run_priority(load, ef_share, seed=1)
    for band, (waits, expected) in enumerate(zip(samples, exact)):
        mean, half = batch_interval(waits)
        assert abs(mean - expected) <= half, (
            f"band {band} at load {load}, EF share {ef_share}: mean wait "
            f"{mean:.6g} +- {half:.3g} s, Cobham {expected:.6g} s")


def test_cobham_reduces_to_pollaczek_khinchine_for_one_band():
    # M/D/1: W = rho S / (2 (1 - rho)).
    service, rate = 0.004, 150.0
    rho = rate * service
    assert cobham_waits([rate], service) == pytest.approx(
        [rho * service / (2 * (1 - rho))])


# ----------------------------------------------------------------------
# (ii) Tail drop: exact M/D/1/K blocking
# ----------------------------------------------------------------------
def md1k_blocking(rho, places):
    """Blocking probability of M/D/1/K with ``places`` = K and offered
    load ``rho``, from the chain embedded at departure epochs.

    ``a_j`` is the chance of ``j`` arrivals in one service time.  The
    departure chain lives on ``0..K-1`` frames left behind; its balance
    equations are solved forwards from ``pi_0 = 1``.  By PASTA, an
    arrival is blocked with probability ``1 - 1 / (pi_0 + rho)``
    (``pi`` normalised).
    """
    arrivals = [exp(-rho) * rho ** j / factorial(j) for j in range(places)]
    pi = [1.0]
    for j in range(places - 1):
        inflow = pi[0] * arrivals[j] + sum(
            pi[i] * arrivals[j - i + 1] for i in range(1, j + 1))
        pi.append((pi[j] - inflow) / arrivals[0])
    pi0 = pi[0] / sum(pi)
    return 1 - 1 / (pi0 + rho)


def test_md1k_blocking_reduces_to_erlang_loss_for_one_place():
    # K = 1: no waiting room, B = rho / (1 + rho) for any service law.
    for rho in (0.3, 1.0, 2.5):
        assert md1k_blocking(rho, 1) == pytest.approx(rho / (1 + rho))


def run_tail_drop(capacity, load, seed):
    kernel, iface, service = one_port(FifoQueue(capacity=capacity))
    ids = count(1)
    accepted = []

    def send():
        accepted.append(iface.send(frame(Dscp.BE, next(ids))))

    poisson(kernel, RngRegistry(seed).stream("arrivals"), load / service,
            send, ARRIVALS / (load / service))
    kernel.run()
    return [0.0 if ok else 1.0 for ok in accepted[WARMUP:]]


@pytest.mark.parametrize("capacity,load", [(1, 0.7), (3, 0.9), (2, 1.2)])
def test_fifo_tail_drop_matches_md1k_blocking(capacity, load):
    drops = run_tail_drop(capacity, load, seed=1)
    mean, half = batch_interval(drops)
    expected = md1k_blocking(load, capacity + 1)
    assert abs(mean - expected) <= half, (
        f"capacity {capacity} at load {load}: drop share {mean:.5f} "
        f"+- {half:.5f}, M/D/1/{capacity + 1} {expected:.5f}")
