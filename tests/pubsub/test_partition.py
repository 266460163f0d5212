"""Partition-aware exclusive ownership: the stall fix, end to end.

The bug: with a single lease-driven arbiter, a reader cut off from
the broker's partition froze on whatever owner it last heard about —
even when that writer was unreachable from the reader's side of the
cut and a weaker-but-reachable backup was right there.  The fix
elects, per reachability partition, the strongest writer *in that
partition*, and deterministically re-arbitrates on every link state
change (including heal).

Topology: four hosts (pub-a, pub-b, sub, brk) around one router.
Cutting brk–router isolates the broker; cutting pub-a–router then
removes the primary from the reader's partition.
"""

from repro.pubsub import (
    Broker,
    DataReader,
    DataWriter,
    OwnershipKind,
    QosPolicy,
    Topic,
)
from repro.net import Network
from repro.oskernel.host import Host
from repro.sim import Kernel

LEASE = 0.6


def _exclusive(strength):
    return QosPolicy(ownership=OwnershipKind.EXCLUSIVE,
                     strength=strength, lease=LEASE)


def _build():
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=10e6)
    hosts = {}
    for name in ("pub-a", "pub-b", "sub", "brk"):
        hosts[name] = Host(kernel, name)
        net.attach_host(hosts[name])
    router = net.add_router("router")
    for name in hosts:
        net.link(name, router, bandwidth_bps=10e6)
    net.compute_routes()

    broker = Broker(kernel, nic=net.nic_of("brk"), network=net)
    topic = Topic("t", sample_bytes=100, rate_hz=10.0)
    primary = DataWriter(kernel, topic, _exclusive(10), "wp",
                         nic=net.nic_of("pub-a"))
    backup = DataWriter(kernel, topic, _exclusive(5), "wb",
                        nic=net.nic_of("pub-b"))
    reader = DataReader(
        kernel, topic,
        QosPolicy(ownership=OwnershipKind.EXCLUSIVE, lease=None),
        "r", nic=net.nic_of("sub"))
    broker.register_writer(primary)
    broker.register_writer(backup)
    broker.register_reader(reader)
    return kernel, net, broker, primary, backup, reader


def test_connected_network_is_one_partition():
    kernel, net, broker, primary, backup, reader = _build()
    parts = broker.partitions()
    assert parts is not None
    assert len(set(parts.values())) == 1
    assert reader.owner == "wp"
    assert broker.owners["t"] == "wp"


def test_broker_cut_alone_keeps_the_reachable_primary():
    """Isolating the *broker* must not steal ownership from a primary
    the reader can still reach."""
    kernel, net, broker, primary, backup, reader = _build()
    kernel.schedule_at(1.0, net.link_between("brk", "router").fail)

    def check_during_cut():
        parts = broker.partitions()
        # Two partitions: the broker alone, everyone else together.
        assert len(set(parts.values())) == 2
        assert parts["sub"] == parts["pub-a"] == parts["pub-b"]
        assert parts["brk"] != parts["sub"]
        assert reader.owner == "wp"  # strongest reachable: unchanged

    kernel.schedule_at(2.5, check_during_cut)
    kernel.run(until=3.0)
    # No heartbeat reached the broker since the cut, so its *home*
    # lease view declared both writers dead — but the reader's
    # partition never flapped.
    assert not broker.writer_alive("wp")
    assert reader.owner == "wp"


def test_partition_elects_the_strongest_reachable_writer():
    kernel, net, broker, primary, backup, reader = _build()
    kernel.schedule_at(1.0, net.link_between("brk", "router").fail)
    kernel.schedule_at(1.5, net.link_between("pub-a", "router").fail)

    owners_seen = []
    kernel.schedule_at(
        2.5, lambda: owners_seen.append((round(kernel.now, 3),
                                         reader.owner)))
    kernel.run(until=3.0)
    # With the primary outside the reader's partition, the backup is
    # the strongest reachable writer — that's the stall fix firing.
    assert owners_seen == [(2.5, "wb")]
    assert broker.partition_elections >= 1


def test_heal_re_arbitrates_within_two_leases():
    kernel, net, broker, primary, backup, reader = _build()
    kernel.schedule_at(1.0, net.link_between("brk", "router").fail)
    kernel.schedule_at(1.5, net.link_between("pub-a", "router").fail)
    kernel.schedule_at(3.0, net.link_between("pub-a", "router").restore)
    kernel.schedule_at(3.0, net.link_between("brk", "router").restore)

    healed_views = []

    def snapshot():
        healed_views.append((round(kernel.now, 3), reader.owner,
                             broker.owners["t"]))

    # Two leases after the heal everything must agree on the primary.
    kernel.schedule_at(3.0 + 2 * LEASE, snapshot)
    kernel.run(until=5.0)
    assert healed_views == [(3.0 + 2 * LEASE, "wp", "wp")]
    assert broker.writer_alive("wp")
    assert broker.writer_alive("wb")
    parts = broker.partitions()
    assert len(set(parts.values())) == 1


def test_a_reader_that_rejoins_follows_the_unchanged_owner():
    """Cut the reader off for less than a lease: its partition elects
    no owner, the broker's own keeps ``wp`` throughout, and at the heal
    the reader must take ``wp`` back although no owner changed."""
    kernel, net, broker, primary, backup, reader = _build()
    link = net.link_between("sub", "router")
    kernel.schedule_at(1.0, link.fail)
    kernel.schedule_at(1.0 + LEASE / 2, link.restore)

    views = []
    for at in (1.0 + LEASE / 4, 1.0 + LEASE):
        kernel.schedule_at(at, lambda: views.append(
            (reader.owner, broker.owners["t"])))
    kernel.run(until=2.0)
    assert views == [(None, "wp"), ("wp", "wp")]


def test_local_mode_broker_has_no_partition_view():
    kernel = Kernel()
    broker = Broker(kernel)
    assert broker.partitions() is None
