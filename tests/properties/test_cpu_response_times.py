"""Property test: the CPU's response times are exact, not just plausible.

A synchronous periodic task set under preemptive fixed priority has a
closed-form worst case: each task's first job, released with every
higher-priority task at t = 0, completes at the least fixed point of
the Joseph & Pandya recurrence

    R_i = C_i + sum over j in hp(i) of ceil(R_i / T_j) * C_j

provided every R_i <= T_i (no job is still pending at its successor's
release).  The recurrence is written here, in integer ticks of 1/256 s,
so it depends on no analysis code in the package.  C and T are drawn on
that dyadic grid, so every time the simulated CPU computes (sums of
slices, budgets, period boundaries) is exact in floats and the
simulated completion time must equal the fixed point to the last bit:
the tolerance is 0.

A hard (C, T) reserve is a periodic server: its thread runs in the
boost band above every native priority until C is spent, then is
suspended until the next period boundary.  With work always pending it
is one more task at the top of every hp set, and the same recurrence
holds for the threads below it.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.sim import Kernel
from repro.oskernel import CPU, EnforcementPolicy, ReserveManager, SimThread

#: Ticks per simulated second: every C and T is a multiple of 1/TICKS.
TICKS = 256


def response_time(compute, higher, limit):
    """Least fixed point of the recurrence for a task of ``compute``
    ticks below the ``(C, T)`` tasks in ``higher``, or ``None`` once the
    iterate passes ``limit`` ticks."""
    response = compute
    while response <= limit:
        demand = compute + sum(-(-response // period) * c
                               for c, period in higher)
        if demand == response:
            return response
        response = demand
    return None


@st.composite
def task_sets(draw):
    """(tasks, reserve): tasks as ``(C, T)`` ticks, highest priority
    first; reserve an optional ``(C, T)`` ticks above all of them."""
    def task(max_share):
        period = 16 * draw(st.integers(min_value=1, max_value=16))
        compute = draw(st.integers(min_value=1,
                                   max_value=max(1, period // max_share)))
        return compute, period

    tasks = [task(3) for _ in range(draw(st.integers(1, 4)))]
    reserve = task(4) if draw(st.booleans()) else None
    return tasks, reserve


def simulate(tasks, reserve):
    """First-job completion time of each task, in seconds."""
    kernel = Kernel()
    cpu = CPU(kernel)
    horizon = max(period for _, period in tasks) / TICKS
    if reserve is not None:
        server = SimThread(cpu, priority=0, name="server")
        ReserveManager(kernel, cpu, utilization_bound=1.0).request(
            server, reserve[0] / TICKS, reserve[1] / TICKS,
            EnforcementPolicy.HARD)
        cpu.submit(server, 4 * horizon)
    first = {}

    def release(index, thread, compute):
        request = cpu.submit(thread, compute)
        first.setdefault(index, request)

    for index, (compute, period) in enumerate(tasks):
        # Distinct native priorities, list order = priority order.
        thread = SimThread(cpu, priority=100 - index, name=f"task{index}")
        release_at = 0
        while release_at < horizon * TICKS:
            kernel.schedule_at(release_at / TICKS, release, index, thread,
                               compute / TICKS)
            release_at += period
    kernel.run(until=horizon)
    return [first[index].completed_at for index in range(len(tasks))]


@given(task_sets())
@settings(max_examples=80, deadline=None)
def test_prop_first_response_is_the_joseph_pandya_fixed_point(case):
    tasks, reserve = case
    servers = [reserve] if reserve is not None else []
    assume(sum(c / t for c, t in tasks + servers) <= 1.0)
    expected = []
    for index, (compute, period) in enumerate(tasks):
        response = response_time(compute, servers + tasks[:index], period)
        assume(response is not None)
        expected.append(response / TICKS)
    assert simulate(tasks, reserve) == expected


def test_a_hard_reserve_above_the_set_is_one_more_periodic_task():
    # Server (1/16 s every 1/4 s) above tasks (1/16, 1/8) and (3/32, 1/2):
    # R_0 = 16 + 16 = 32 ticks; R_1 = 24 + 2*16 + 4*16 = 120 ticks.
    tasks, reserve = [(16, 32), (24, 128)], (16, 64)
    assert response_time(16, [reserve], 32) == 32
    assert response_time(24, [reserve, tasks[0]], 128) == 120
    assert simulate(tasks, reserve) == [32 / TICKS, 120 / TICKS]
