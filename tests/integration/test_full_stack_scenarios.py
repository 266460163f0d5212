"""Cross-layer integration scenarios exercising the whole stack."""

import pytest

from repro.sim import Kernel, Process
from repro.oskernel import Host, OsType
from repro.net import Dscp, GuaranteedRateQueue, Network
from repro.net.traffic import CbrTrafficSource
from repro.orb import Orb, compile_idl
from repro.orb.core import raise_if_error
from repro.orb.rt import PriorityModel, ThreadPool
from repro.core import EndToEndQoSManager, QosPolicy
from repro.core.metrics import DeliveryRecorder
from repro.media import FrameFilter, MpegStream
from repro.media.filtering import FilterLevel
from repro.quo import Contract, Region, SyscondPublisher, start_mirror
from repro.quo.syscond import LossRateSC
from repro.avstreams import MMDeviceServant, StreamCtrl
from repro.services.naming import NamingClient, start_naming_service
from repro.services.scheduling import RmsScheduler


def star(kernel, names, bandwidth=10e6, intserv=False):
    net = Network(kernel, default_bandwidth_bps=bandwidth)
    for name in names:
        net.attach_host(Host(kernel, name))
    router = net.add_router("router")

    def q():
        return GuaranteedRateQueue(kernel) if intserv else None

    for name in names:
        net.link(name, router, qdisc_a=q(), qdisc_b=q())
    net.compute_routes()
    if intserv:
        net.enable_intserv()
    return net, router


def test_rms_priorities_flow_through_naming_to_dispatch():
    """Scheduling service -> naming service -> priority binding ->
    server dispatch: the full control-plane path."""
    kernel = Kernel()
    net, _ = star(kernel, ["control", "registry", "server"],
                  bandwidth=100e6)
    orbs = {name: Orb(kernel, net.host(name), net)
            for name in ("control", "registry", "server")}

    # 1. The static scheduler assigns RMS CORBA priorities.
    scheduler = RmsScheduler()
    scheduler.register("guidance", period=0.1, wcet=0.01)
    scheduler.register("telemetry", period=1.0, wcet=0.1)
    priorities = scheduler.assign_priorities()
    assert priorities["guidance"] > priorities["telemetry"]

    # 2. The server exports one servant per task, found via naming.
    IDL = "interface Tick { long tick(in long n); };"
    TICK = compile_idl(IDL)["Tick"]
    observed = {}

    def make_servant(task):
        class TickServant(TICK.skeleton_class):
            def tick(self, n, _task=task):
                thread = orbs["server"].current_dispatch_thread
                observed[_task] = thread.priority
                return n + 1
        return TickServant()

    pool = ThreadPool(kernel, net.host("server"),
                      orbs["server"].mapping_manager,
                      lanes=[(0, 1), (priorities["guidance"], 1)],
                      name="rt")
    poa = orbs["server"].create_poa(
        "tasks", thread_pool=pool,
        priority_model=PriorityModel.CLIENT_PROPAGATED)
    _, naming_ref = start_naming_service(orbs["registry"])
    manager = EndToEndQoSManager()

    def scenario():
        naming = NamingClient(orbs["server"], naming_ref)
        for task in ("guidance", "telemetry"):
            ref = poa.activate_object(make_servant(task), oid=task)
            yield from naming.bind(f"tasks/{task}", ref)
        # 3. The client resolves and invokes at scheduled priorities.
        client_naming = NamingClient(orbs["control"], naming_ref)
        for task in ("guidance", "telemetry"):
            ref = yield from client_naming.resolve(f"tasks/{task}")
            stub = TICK.stub_class(orbs["control"], ref)
            manager.apply(QosPolicy(priorities[task]), net.host("control"),
                          orb=orbs["control"], stub=stub)
            result = yield stub.tick(1)
            raise_if_error(result)
        return True

    Process(kernel, scenario(), name="mission-setup")
    kernel.run()
    mapping = orbs["server"].mapping_manager
    os_type = net.host("server").os_type
    assert observed["guidance"] == mapping.to_native(
        priorities["guidance"], os_type)
    assert observed["telemetry"] == mapping.to_native(
        priorities["telemetry"], os_type)
    assert observed["guidance"] > observed["telemetry"]


def test_distributed_adaptation_loop_over_real_control_channel():
    """The full QuO loop over the wire: the receiver's windowed loss
    rate, read from the stream's delivery recorder, is published
    through a real CORBA control channel to a mirror beside the sender,
    whose contract adapts the frame filter."""
    kernel = Kernel()
    net, _ = star(kernel, ["src", "dst", "noise"], bandwidth=10e6)
    orbs = {name: Orb(kernel, net.host(name), net) for name in ("src", "dst")}

    # Stream setup over the A/V service.
    devices, refs = {}, {}
    for name, orb in orbs.items():
        device = MMDeviceServant(kernel, orb)
        poa = orb.create_poa("av")
        devices[name] = device
        refs[name] = poa.activate_object(device, oid="mm")

    # Sender side: mirror + contract + filter.
    mirror, mirror_ref = start_mirror(orbs["src"])
    remote_loss = mirror.condition("loss", initial=0.0)
    frame_filter = FrameFilter()
    contract = Contract(kernel, "remote-loop", regions=[
        Region("starved", lambda s: s["loss"] > 0.2,
               on_enter=lambda c: frame_filter.set_level(FilterLevel.LOW)),
        Region("ok"),
    ])
    contract.attach(remote_loss)
    contract.evaluate()

    # Receiver side: measured loss published over the wire.
    publisher = SyscondPublisher(orbs["dst"], mirror_ref, min_interval=0.5)
    delivery = DeliveryRecorder("video")
    loss = LossRateSC(kernel, "loss", window=1.0, update_interval=0.5)
    loss.recorder = delivery
    loss.observe(lambda c: publisher.publish("loss", c.value))
    loss.start()

    ctrl = StreamCtrl(kernel, orbs["src"])
    state = {}

    def setup():
        yield from ctrl.bind("video", refs["src"], refs["dst"])
        producer = devices["src"].producer("video")
        consumer = devices["dst"].consumer("video")
        consumer.on_frame = (lambda frame, latency: delivery.record_received(
            kernel.now, kernel.now - latency))
        stream = MpegStream("video")
        state["producer"] = producer

        def pump():
            while True:
                frame = stream.next_frame(kernel.now)
                if frame_filter.accept(frame):
                    delivery.record_sent(kernel.now)
                    producer.send_frame(frame)
                yield stream.frame_interval

        Process(kernel, pump(), name="pump")

    Process(kernel, setup(), name="setup")
    # Congestion starts at t=5: 40 Mbps swamps the 10 Mbps segment.
    noise = CbrTrafficSource(kernel, net.nic_of("noise"), "dst",
                             rate_bps=40e6)
    kernel.schedule(5.0, noise.start)
    kernel.run(until=15.0)
    loss.stop()
    noise.stop()

    # The loop closed: the sender adapted purely from remote telemetry.
    assert contract.current_region == "starved"
    assert frame_filter.level == FilterLevel.LOW
    assert mirror.updates_received >= 2
    # And the adaptation actually reduced the offered load.
    assert frame_filter.frames_filtered > 0


def test_priority_binding_and_reservation_compose_end_to_end():
    """A reserved A/V flow plus an EF-marked CORBA control channel on
    one congested network: both must meet their QoS simultaneously."""
    kernel = Kernel()
    net, _ = star(kernel, ["ops", "platform", "noise"],
                  bandwidth=10e6, intserv=True)
    orbs = {name: Orb(kernel, net.host(name), net)
            for name in ("ops", "platform")}

    IDL = "interface Actuate { long command(in long code); };"
    ACTUATE = compile_idl(IDL)["Actuate"]

    class ActuateServant(ACTUATE.skeleton_class):
        def command(self, code):
            return code * 2

    poa = orbs["platform"].create_poa("control", dscp=Dscp.EF)
    control_ref = poa.activate_object(ActuateServant())

    devices, refs = {}, {}
    for name, orb in orbs.items():
        device = MMDeviceServant(kernel, orb)
        av_poa = orb.create_poa("av")
        devices[name] = device
        refs[name] = av_poa.activate_object(device, oid="mm")

    ctrl = StreamCtrl(kernel, orbs["platform"])
    latencies = []
    delivered = {"frames": 0}

    def scenario():
        binding = yield from EndToEndQoSManager().open_stream(
            "sensor", QosPolicy(reservation=QosPolicy.flow(1.4e6)), ctrl,
            refs["platform"], refs["ops"])
        assert binding.reserved
        producer = devices["platform"].producer("sensor")
        consumer = devices["ops"].consumer("sensor")
        consumer.on_frame = (
            lambda frame, latency: delivered.__setitem__(
                "frames", delivered["frames"] + 1))
        stream = MpegStream("sensor")

        def pump():
            while True:
                producer.send_frame(stream.next_frame(kernel.now))
                yield stream.frame_interval

        Process(kernel, pump(), name="pump")
        stub = ACTUATE.stub_class(orbs["ops"], control_ref)
        while kernel.now < 20.0:
            started = kernel.now
            result = yield stub.command(7)
            raise_if_error(result)
            latencies.append(kernel.now - started)
            yield 0.5

    Process(kernel, scenario(), name="mission")
    noise = CbrTrafficSource(kernel, net.nic_of("noise"), "ops",
                             rate_bps=40e6)
    kernel.schedule(2.0, noise.start)
    kernel.run(until=21.0)
    noise.stop()

    # The reserved video flow rode out the congestion...
    assert delivered["frames"] > 550  # ~20 s at 30 fps
    # ...and the EF control channel stayed interactive throughout.
    assert max(latencies) < 0.1
    assert len(latencies) >= 35
