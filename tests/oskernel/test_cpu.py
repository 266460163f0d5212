"""Unit tests for the preemptive fixed-priority CPU scheduler."""

import pytest

from repro.sim import Kernel
from repro.oskernel import CPU, SimThread, ThreadState


def make_cpu():
    kernel = Kernel()
    cpu = CPU(kernel, name="cpu0")
    return kernel, cpu


def completion_times(kernel, requests):
    kernel.run()
    return [r.completed_at for r in requests]


def test_single_thread_runs_to_completion():
    kernel, cpu = make_cpu()
    thread = SimThread(cpu, priority=10, name="t")
    request = cpu.submit(thread, 2.5)
    kernel.run()
    assert request.completed_at == pytest.approx(2.5)
    assert request.response_time == pytest.approx(2.5)
    assert thread.cpu_time == pytest.approx(2.5)
    assert thread.state == ThreadState.IDLE


def test_higher_priority_runs_first():
    kernel, cpu = make_cpu()
    low = SimThread(cpu, priority=1, name="low")
    high = SimThread(cpu, priority=10, name="high")
    r_low = cpu.submit(low, 1.0)
    r_high = cpu.submit(high, 1.0)
    kernel.run()
    assert r_high.completed_at == pytest.approx(1.0)
    assert r_low.completed_at == pytest.approx(2.0)


def test_preemption_is_immediate():
    kernel, cpu = make_cpu()
    low = SimThread(cpu, priority=1, name="low")
    high = SimThread(cpu, priority=10, name="high")
    r_low = cpu.submit(low, 2.0)
    # High-priority work arrives mid-execution of low.
    holder = {}
    kernel.schedule(0.5, lambda: holder.setdefault("r", cpu.submit(high, 1.0)))
    kernel.run()
    assert holder["r"].completed_at == pytest.approx(1.5)  # ran 0.5..1.5
    assert r_low.completed_at == pytest.approx(3.0)  # 0.5 done + 1.5 after


def test_preempted_work_is_charged_exactly():
    kernel, cpu = make_cpu()
    low = SimThread(cpu, priority=1, name="low")
    high = SimThread(cpu, priority=10, name="high")
    cpu.submit(low, 2.0)
    kernel.schedule(0.5, lambda: cpu.submit(high, 1.0))
    kernel.run(until=0.75)
    # At t=0.75: low ran 0.5, high has run 0.25.
    assert low.cpu_time == pytest.approx(0.5)


def test_back_to_back_work_uses_one_slice_handle():
    """A slice that ends by firing leaves its handle to the next
    dispatch, which re-arms it in place: unpreempted work keeps the
    CPU's first slice handle for the CPU's life."""
    kernel, cpu = make_cpu()
    thread = SimThread(cpu, priority=5, name="t")
    done, handles = [], []

    def chain(request):
        done.append(request.completed_at)
        if len(done) < 4:
            cpu.submit(thread, 0.5).done.wait(chain)
            handles.append(cpu._slice)

    cpu.submit(thread, 0.5).done.wait(chain)
    first = cpu._slice
    kernel.run()
    assert done == [0.5, 1.0, 1.5, 2.0]
    assert len(handles) == 3 and all(h is first for h in handles)
    assert cpu._slice is first
    assert kernel._stale == 0


def test_a_preemption_tombstones_the_pending_slice_once():
    kernel, cpu = make_cpu()
    low = SimThread(cpu, priority=1, name="low")
    high = SimThread(cpu, priority=10, name="high")
    r_low = cpu.submit(low, 2.0)
    preempted = cpu._slice
    holder = {}
    kernel.schedule(0.5, lambda: holder.setdefault("r", cpu.submit(high, 1.0)))
    kernel.run(until=0.75)
    assert kernel._stale == 1
    assert preempted.cancelled and cpu._slice is not preempted
    # Due at 2.0; were it dispatched (or re-armed), this would record.
    fired = []
    preempted.callback = lambda: fired.append(kernel.now)
    kernel.run()
    assert fired == []
    assert kernel._stale == 0
    assert holder["r"].completed_at == 1.5
    assert r_low.completed_at == 3.0


def test_equal_priority_is_fifo():
    kernel, cpu = make_cpu()
    a = SimThread(cpu, priority=5, name="a")
    b = SimThread(cpu, priority=5, name="b")
    r_a = cpu.submit(a, 1.0)
    r_b = cpu.submit(b, 1.0)
    kernel.run()
    assert r_a.completed_at < r_b.completed_at


def test_fifo_order_within_thread():
    kernel, cpu = make_cpu()
    t = SimThread(cpu, priority=5, name="t")
    first = cpu.submit(t, 1.0)
    second = cpu.submit(t, 1.0)
    kernel.run()
    assert first.completed_at == pytest.approx(1.0)
    assert second.completed_at == pytest.approx(2.0)


def test_cpu_speed_scales_execution_time():
    kernel = Kernel()
    cpu = CPU(kernel, speed=2.0)
    t = SimThread(cpu, priority=5)
    request = cpu.submit(t, 1.0)
    kernel.run()
    assert request.completed_at == pytest.approx(0.5)
    assert t.cpu_time == pytest.approx(1.0)  # work units, not wall time


def test_priority_raise_triggers_preemption():
    kernel, cpu = make_cpu()
    a = SimThread(cpu, priority=5, name="a")
    b = SimThread(cpu, priority=1, name="b")
    r_a = cpu.submit(a, 2.0)
    r_b = cpu.submit(b, 2.0)
    kernel.schedule(1.0, lambda: b.set_priority(10))
    kernel.run()
    # b preempts at t=1 and finishes its 2 s of work at t=3.
    assert r_b.completed_at == pytest.approx(3.0)
    assert r_a.completed_at == pytest.approx(4.0)


def test_zero_work_request_completes():
    kernel, cpu = make_cpu()
    t = SimThread(cpu, priority=5)
    request = cpu.submit(t, 0.0)
    kernel.run()
    assert request.completed_at == pytest.approx(0.0)


def test_negative_work_rejected():
    kernel, cpu = make_cpu()
    t = SimThread(cpu, priority=5)
    with pytest.raises(ValueError):
        cpu.submit(t, -1.0)


def test_invalid_speed_rejected():
    with pytest.raises(ValueError):
        CPU(Kernel(), speed=0.0)


def test_done_signal_fires_with_request():
    kernel, cpu = make_cpu()
    t = SimThread(cpu, priority=5)
    request = cpu.submit(t, 1.0)
    seen = []
    request.done.wait(seen.append)
    kernel.run()
    assert seen == [request]


def test_utilization_accounting():
    kernel, cpu = make_cpu()
    t = SimThread(cpu, priority=5)
    cpu.submit(t, 1.0)
    kernel.run(until=4.0)
    assert cpu.busy_time == pytest.approx(1.0)


def test_busy_cpu_serializes_total_work():
    kernel, cpu = make_cpu()
    threads = [SimThread(cpu, priority=p) for p in (3, 1, 2)]
    requests = [cpu.submit(t, 1.0) for t in threads]
    kernel.run()
    assert max(r.completed_at for r in requests) == pytest.approx(3.0)
    assert cpu.busy_time == pytest.approx(3.0)


def test_context_switch_counting():
    kernel, cpu = make_cpu()
    low = SimThread(cpu, priority=1)
    high = SimThread(cpu, priority=10)
    cpu.submit(low, 2.0)
    kernel.schedule(0.5, lambda: cpu.submit(high, 1.0))
    kernel.run()
    # low -> high -> low: three dispatch changes.
    assert cpu.context_switches == 3


# ----------------------------------------------------------------------
# Thread kill: the lazy ready-heap must never run a dead thread
# ----------------------------------------------------------------------
def test_kill_enqueued_thread_never_runs():
    """Regression: a READY thread killed while its entry sat in the lazy
    ready-heap used to be dispatchable from the stale entry.  The kill
    path must invalidate the ready episode and drain the work queue."""
    kernel, cpu = make_cpu()
    runner = SimThread(cpu, priority=10, name="runner")
    victim = SimThread(cpu, priority=5, name="victim")
    cpu.submit(runner, 1.0)
    request = cpu.submit(victim, 1.0)  # queued behind the runner
    kernel.schedule(0.5, victim.kill)  # dies while still enqueued
    kernel.run()
    assert victim.state == ThreadState.DEAD
    assert victim.cpu_time == 0.0  # never dispatched
    assert request.completed_at is None
    assert cpu.backlog(victim) == []
    assert kernel.now == pytest.approx(1.0)  # only the runner's work ran


def test_kill_running_thread_charges_partial_slice():
    kernel, cpu = make_cpu()
    hog = SimThread(cpu, priority=10, name="hog")
    low = SimThread(cpu, priority=1, name="low")
    cpu.submit(hog, 2.0)
    r_low = cpu.submit(low, 1.0)
    kernel.schedule(0.5, hog.kill)
    kernel.run()
    assert hog.state == ThreadState.DEAD
    assert hog.cpu_time == pytest.approx(0.5)  # the slice it actually held
    # The CPU is released immediately to the lower-priority work.
    assert r_low.completed_at == pytest.approx(1.5)


def test_submit_to_dead_thread_rejected():
    kernel, cpu = make_cpu()
    t = SimThread(cpu, priority=5, name="t")
    t.kill()
    with pytest.raises(ValueError, match="dead thread"):
        cpu.submit(t, 1.0)


def test_kill_is_idempotent():
    kernel, cpu = make_cpu()
    t = SimThread(cpu, priority=5)
    cpu.submit(t, 1.0)
    t.kill()
    t.kill()
    assert t.state == ThreadState.DEAD
    kernel.run()  # nothing left to run


def test_kill_after_priority_change_ignores_all_stale_entries():
    """A priority change pushes a second heap entry for the same ready
    episode; killing afterwards must invalidate both."""
    kernel, cpu = make_cpu()
    runner = SimThread(cpu, priority=10, name="runner")
    victim = SimThread(cpu, priority=3, name="victim")
    cpu.submit(runner, 1.0)
    cpu.submit(victim, 1.0)
    kernel.schedule(0.2, lambda: victim.set_priority(8))
    kernel.schedule(0.5, victim.kill)
    kernel.run()
    assert victim.cpu_time == 0.0
    assert kernel.now == pytest.approx(1.0)
