"""Unit tests for hosts and the CPU load generator."""

import pytest

from repro.sim import Kernel, RngRegistry
from repro.oskernel import CpuLoadGenerator, Host, OsType, native_priority_range
from repro.oskernel.priorities import clamp_native


def test_host_spawn_thread_defaults_to_bottom_of_range():
    kernel = Kernel()
    host = Host(kernel, "alpha", os_type=OsType.QNX)
    thread = host.spawn_thread("worker")
    assert thread.priority == native_priority_range(OsType.QNX)[0]
    assert thread.name == "alpha.worker"


def test_host_priority_range_matches_os():
    kernel = Kernel()
    assert Host(kernel, "h", os_type=OsType.LYNXOS).priority_range == (0, 255)
    assert Host(kernel, "h2", os_type=OsType.SOLARIS).priority_range == (100, 159)


def test_clamp_native():
    assert clamp_native(OsType.QNX, 999) == 31
    assert clamp_native(OsType.QNX, -5) == 0
    assert clamp_native(OsType.LINUX, 50) == 50


def test_loadgen_generates_requested_duty_cycle():
    kernel = Kernel()
    host = Host(kernel, "h")
    rng = RngRegistry(seed=11).stream("load")
    load = CpuLoadGenerator(
        kernel, host, priority=5, duty_cycle=0.5, burst_mean=0.05, rng=rng
    )
    load.start()
    kernel.run(until=50.0)
    utilization = load.thread.cpu_time / kernel.now
    assert utilization == pytest.approx(0.5, abs=0.08)


def test_loadgen_full_duty_cycle_saturates():
    kernel = Kernel()
    host = Host(kernel, "h")
    rng = RngRegistry(seed=11).stream("load")
    load = CpuLoadGenerator(
        kernel, host, priority=5, duty_cycle=1.0, burst_mean=0.05, rng=rng
    )
    load.start()
    kernel.run(until=10.0)
    # The in-flight burst at the horizon is not yet charged, so allow
    # one mean burst of slack.
    assert load.thread.cpu_time == pytest.approx(10.0, abs=0.2)


def test_loadgen_stop_halts_generation():
    kernel = Kernel()
    host = Host(kernel, "h")
    rng = RngRegistry(seed=11).stream("load")
    load = CpuLoadGenerator(
        kernel, host, priority=5, duty_cycle=0.9, burst_mean=0.05, rng=rng
    )
    load.start()
    kernel.schedule(5.0, load.stop)
    kernel.run(until=20.0)
    assert load.thread.cpu_time < 6.0


def test_loadgen_start_is_idempotent():
    kernel = Kernel()
    host = Host(kernel, "h")
    load = CpuLoadGenerator(kernel, host, priority=5, duty_cycle=0.5)
    load.start()
    load.start()
    kernel.run(until=1.0)
    assert load.thread.cpu_time <= 1.0


def test_loadgen_is_preempted_by_higher_priority():
    kernel = Kernel()
    host = Host(kernel, "h")
    rng = RngRegistry(seed=11).stream("load")
    load = CpuLoadGenerator(
        kernel, host, priority=5, duty_cycle=1.0, burst_mean=0.05, rng=rng
    )
    load.start()
    important = host.spawn_thread("important", priority=50)
    holder = {}
    kernel.schedule(1.0, lambda: holder.setdefault(
        "req", host.cpu.submit(important, 0.5)))
    kernel.run(until=3.0)
    assert holder["req"].completed_at == pytest.approx(1.5)


def test_invalid_duty_cycle_rejected():
    kernel = Kernel()
    host = Host(kernel, "h")
    with pytest.raises(ValueError):
        CpuLoadGenerator(kernel, host, priority=5, duty_cycle=0.0)
