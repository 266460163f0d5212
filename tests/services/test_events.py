"""Tests for the real-time event channel."""

import pytest

from repro.sim import Kernel, Process
from repro.oskernel import Host
from repro.net import Network
from repro.orb import Orb
from repro.orb.rt import PriorityModel, ThreadPool
from repro.services.events import (
    Event,
    EventChannelServant,
    EventConsumerServant,
    EventProxy,
)


def rig(kernel, lanes=((0, 1),)):
    net = Network(kernel, default_bandwidth_bps=100e6)
    hosts = {}
    for name in ("supplier", "channelhost", "consumer1", "consumer2"):
        hosts[name] = Host(kernel, name)
        net.attach_host(hosts[name])
    router = net.add_router("r")
    for name in hosts:
        net.link(name, router)
    net.compute_routes()
    orbs = {name: Orb(kernel, host, net) for name, host in hosts.items()}
    pool = ThreadPool(kernel, hosts["channelhost"],
                      orbs["channelhost"].mapping_manager,
                      lanes=list(lanes), name="channel-pool")
    channel = EventChannelServant(orbs["channelhost"])
    poa = orbs["channelhost"].create_poa(
        "events", thread_pool=pool,
        priority_model=PriorityModel.CLIENT_PROPAGATED)
    channel_ref = poa.activate_object(channel, oid="channel")
    return orbs, channel, channel_ref


def make_consumer(orbs, host_name, callback=None):
    servant = EventConsumerServant(callback=callback, name=host_name)
    poa = orbs[host_name].create_poa(f"sink-{host_name}")
    return servant, poa.activate_object(servant)


def drive(kernel, coroutine, until=None):
    results = []

    def wrapper():
        value = yield from coroutine
        results.append(value)

    Process(kernel, wrapper(), name="driver")
    kernel.run(until=until)
    return results


def test_event_fans_out_to_all_subscribers():
    kernel = Kernel()
    orbs, channel, channel_ref = rig(kernel)
    sink1, ref1 = make_consumer(orbs, "consumer1")
    sink2, ref2 = make_consumer(orbs, "consumer2")
    proxy = EventProxy(orbs["supplier"], channel_ref)

    def scenario():
        yield from proxy.subscribe(ref1)
        yield from proxy.subscribe(ref2)
        yield from proxy.push(Event("telemetry", data={"alt": 300}))
        return True

    drive(kernel, scenario())
    kernel.run()
    assert len(sink1.received) == 1
    assert len(sink2.received) == 1
    assert sink1.received[0].data == {"alt": 300}
    assert channel.events_in == 1
    assert channel.events_out == 2


def test_type_filter_evaluated_at_channel():
    kernel = Kernel()
    orbs, channel, channel_ref = rig(kernel)
    sink1, ref1 = make_consumer(orbs, "consumer1")
    sink2, ref2 = make_consumer(orbs, "consumer2")
    proxy = EventProxy(orbs["supplier"], channel_ref)

    def scenario():
        yield from proxy.subscribe(ref1, ["alarm"])
        yield from proxy.subscribe(ref2, ["telemetry", "alarm"])
        yield from proxy.push(Event("telemetry"))
        yield from proxy.push(Event("alarm"))
        return True

    drive(kernel, scenario())
    kernel.run()
    assert [e.event_type for e in sink1.received] == ["alarm"]
    assert [e.event_type for e in sink2.received] == ["telemetry", "alarm"]
    assert channel.events_filtered == 1


def test_unsubscribe_stops_delivery():
    kernel = Kernel()
    orbs, channel, channel_ref = rig(kernel)
    sink1, ref1 = make_consumer(orbs, "consumer1")
    proxy = EventProxy(orbs["supplier"], channel_ref)

    def scenario():
        subscription = yield from proxy.subscribe(ref1)
        yield from proxy.push(Event("a"))
        removed = yield from proxy.unsubscribe(subscription)
        yield from proxy.push(Event("b"))
        return removed

    results = drive(kernel, scenario())
    kernel.run()
    assert results == [True]
    assert [e.event_type for e in sink1.received] == ["a"]
    assert channel.subscription_count == 0


def test_unsubscribe_unknown_id_returns_false():
    kernel = Kernel()
    orbs, channel, channel_ref = rig(kernel)
    proxy = EventProxy(orbs["supplier"], channel_ref)

    def scenario():
        return (yield from proxy.unsubscribe(999))

    assert drive(kernel, scenario()) == [False]


def test_high_priority_event_overtakes_bulk_dispatch():
    """Fan-out of a priority-32767 alarm must preempt a long queue of
    priority-0 telemetry events inside the channel host."""
    kernel = Kernel()
    orbs, channel, channel_ref = rig(kernel, lanes=[(0, 1), (30000, 1)])
    order = []
    sink, ref = make_consumer(
        orbs, "consumer1",
        callback=lambda event: order.append(event.event_type))
    # Make channel dispatch expensive so queueing is visible: bulk
    # events carry large payloads (marshal cost on the lane thread).
    proxy = EventProxy(orbs["supplier"], channel_ref)

    def scenario():
        yield from proxy.subscribe(ref)
        for i in range(10):
            yield from proxy.push(
                Event(f"bulk{i}", priority=0, nbytes=2_000_000))
        return True

    def alarm_later():
        yield 0.05
        yield from EventProxy(orbs["supplier"], channel_ref).push(
            Event("ALARM", priority=32767, nbytes=256))

    Process(kernel, scenario(), name="bulk")
    Process(kernel, alarm_later(), name="alarm")
    kernel.run(until=30.0)
    assert "ALARM" in order
    alarm_index = order.index("ALARM")
    assert alarm_index < len(order) - 1, (
        "the alarm should be delivered before the bulk backlog drains: "
        f"{order}"
    )


def test_event_metadata():
    event = Event("x", priority=5, source="uav1", timestamp=1.5)
    assert event.source == "uav1"
