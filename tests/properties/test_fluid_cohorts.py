"""Property tests: a cohort flow is its members, bit for bit.

:class:`~repro.fluid.engine.FluidFlow` carries a multiplicity, and the
engine promises that a flow of ``members`` streams books every shared
accumulator exactly as ``members`` single flows added in a row would.
The oracle here is that expansion itself: each random program is run
twice, once with cohorts and once with every cohort spelled out as
single flows by :class:`Expanded`, and the two worlds must agree with
``==`` — not approximately — on every link ledger, share, residual and
queue delay and on every member's own ledgers.  The same holds for the
arithmetic underneath, :func:`~repro.sim.quantize.add_repeated`, whose
oracle is the one-add-at-a-time loop compared by ``float.hex`` (so
``-0.0`` is not ``0.0``): across signs and zero, on ties, subnormals,
infinities and NaN, and from starts a few ulps inside a binade edge,
where its binade-stepping jumps are easiest to get wrong.  A second
set of cases at 10**12–10**15 terms, with answers known in closed form,
guards its cost: a loop there would run for hours.
"""

from math import ldexp, ulp

import pytest
from hypothesis import given, settings, strategies as st

from repro.fluid.engine import FluidEngine
from repro.sim.kernel import Kernel
from repro.sim.quantize import add_repeated

QUANTUM = 1e-3
CAPACITY = st.one_of(st.integers(1_000_000, 50_000_000).map(float),
                     st.floats(min_value=1e6, max_value=50e6))
#: Integer-valued rates take the exact product path, the others the
#: binade-stepping replay; programs mix both on the same accumulators.
RATE = st.one_of(st.integers(0, 30_000_000).map(float),
                 st.floats(min_value=0.0, max_value=30e6))
DELAY = st.floats(min_value=0.0, max_value=0.5)
PATH = st.sampled_from(("l1", "l2", "l1+l2", "l2+l1"))
MEMBERS = st.one_of(st.just(1), st.integers(1, 40))

ADD = st.tuples(st.just("add"), RATE, st.booleans(), st.booleans(), PATH,
                MEMBERS)
REMOVE = st.tuples(st.just("remove"), st.integers(0, 60))
SET_RATE = st.tuples(st.just("set_rate"), st.integers(0, 60), RATE)
FAULT = st.tuples(st.just("fault"), st.sampled_from(("l1", "l2")),
                  st.booleans())
PACKET_LOAD = st.tuples(st.just("packet_load"), st.sampled_from(("l1", "l2")),
                        st.floats(min_value=0.0, max_value=5e6),
                        st.booleans())
OPS = st.lists(st.tuples(DELAY, st.one_of(ADD, ADD, REMOVE, SET_RATE, FAULT,
                                          PACKET_LOAD)),
               max_size=25)

LINK_FIELDS = ("offered_bytes", "served_bytes", "lost_bytes",
               "reserved_share", "be_share", "fluid_served_bps",
               "fluid_be_in_bps", "packet_residual_bps", "be_queue_delay",
               "packet_reserved_bps", "packet_be_bps")
FLOW_FIELDS = ("reserved", "adaptive", "rate_bps", "nominal_bps",
               "served_share", "latency", "offered_bytes", "served_bytes",
               "lost_bytes", "shed_bytes", "served_on_time_bytes",
               "latency_time_sum", "active_seconds")


def fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


class World:
    """One engine on two links, driven by the op tuples above."""

    def __init__(self, cap1, cap2, governor_delay):
        self.kernel = Kernel()
        self.engine = FluidEngine(self.kernel, quantum=QUANTUM,
                                  governor_delay=governor_delay)
        self.links = {"l1": self.engine.add_link("l1", cap1),
                      "l2": self.engine.add_link("l2", cap2)}
        #: Logical flow name -> members, in admission order.
        self.live = {}
        self.next_id = 0

    # -- the three flow ops a cohort changes ---------------------------
    def add(self, name, rate, path, reserved, adaptive, members):
        self.engine.add_flow(name, rate, path, reserved=reserved,
                             adaptive=adaptive, members=members,
                             deadline=0.05)

    def remove(self, name):
        self.engine.remove_flow(name)

    def set_rate(self, name, rate):
        self.engine.set_rate(name, rate)

    def member_ledgers(self, name):
        """The per-member ledger of every member of ``name``."""
        return ([fields(self.engine.flow(name), FLOW_FIELDS)]
                * self.live[name])

    # ------------------------------------------------------------------
    def apply(self, op):
        kind = op[0]
        names = list(self.live)
        if kind == "add":
            _, rate, reserved, adaptive, path, members = op
            name = f"f{self.next_id}"
            self.next_id += 1
            self.live[name] = members
            self.add(name, rate, [self.links[hop] for hop in path.split("+")],
                     reserved, adaptive, members)
        elif kind == "remove" and names:
            name = names[op[1] % len(names)]
            self.remove(name)
            del self.live[name]
        elif kind == "set_rate" and names:
            self.set_rate(names[op[1] % len(names)], op[2])
        elif kind == "fault":
            self.links[op[1]].on_link_state(op[2])
        elif kind == "packet_load":
            self.links[op[1]].register_packet_load(op[2], reserved=op[3])

    def observe(self):
        return ([fields(link, LINK_FIELDS) for link in self.links.values()],
                [self.member_ledgers(name) for name in self.live],
                self.engine.epochs, self.engine.governor_transitions)


class Expanded(World):
    """The oracle: every cohort is ``members`` single flows in a row."""

    def _members(self, name):
        return [f"{name}#{j}" for j in range(self.live[name])]

    def add(self, name, rate, path, reserved, adaptive, members):
        for member in self._members(name):
            self.engine.add_flow(member, rate, path, reserved=reserved,
                                 adaptive=adaptive, deadline=0.05)

    def remove(self, name):
        for member in self._members(name):
            self.engine.remove_flow(member)

    def set_rate(self, name, rate):
        for member in self._members(name):
            self.engine.set_rate(member, rate)

    def member_ledgers(self, name):
        return [fields(self.engine.flow(member), FLOW_FIELDS)
                for member in self._members(name)]


@given(CAPACITY, CAPACITY, OPS, st.sampled_from((0.0, 0.3, None)))
@settings(max_examples=120, deadline=None)
def test_prop_cohort_equals_its_expansion(cap1, cap2, ops, governor_delay):
    """Random add/remove/set_rate/fault programs over multi-hop paths,
    with an immediate, a short and the default governor: the cohort
    world and the expanded world never differ by one ulp anywhere."""
    worlds = [World(cap1, cap2, governor_delay),
              Expanded(cap1, cap2, governor_delay)]
    seen = [[], []]
    for world, log in zip(worlds, seen):
        t = 0.0
        for delay, op in ops:
            t += delay
            world.kernel.schedule_at(t, world.apply, op)
            # Probe after the op's coalesced epoch has fired.
            world.kernel.schedule_at(
                t + 2 * QUANTUM, lambda w=world, out=log:
                out.append(w.observe()))
        world.kernel.run(until=t + 1.5)
        world.engine.finalize()
        log.append(world.observe())
    assert seen[0] == seen[1]
    assert len(worlds[0].engine.flows()) == len(worlds[0].live)
    assert (len(worlds[1].engine.flows())
            == sum(worlds[1].live.values()))


def the_loop(acc, value, times):
    for _ in range(times):
        acc += value
    return acc


MAGNITUDE = st.one_of(st.integers(0, 2 ** 54).map(float),
                      st.floats(min_value=0.0, max_value=1e18),
                      st.floats(min_value=0.0, max_value=1e-3))
SIGNED = st.builds(lambda x, negate: -x if negate else x, MAGNITUDE,
                   st.booleans())
SUBNORMAL = st.integers(1 - 2 ** 52, 2 ** 52 - 1).map(
    lambda n: n * 2.0 ** -1074)
FINITE = st.one_of(SIGNED, SUBNORMAL)
#: Every double, NaN and the infinities included.
TERM = st.one_of(st.floats(), FINITE)
SIGN = st.sampled_from((1.0, -1.0))


@st.composite
def zero_crossing(draw):
    """``value`` carries ``acc`` through zero within about n adds."""
    acc = draw(FINITE)
    n = draw(st.integers(1, 2000))
    return acc, -acc / n * draw(st.floats(min_value=0.5, max_value=2.0))


@st.composite
def tie(draw):
    """``value`` half-way between two multiples of ``acc``'s ulp, so
    the first add's increment depends on ``acc``'s last bit."""
    acc = draw(FINITE)
    return acc, draw(SIGN) * (draw(st.integers(0, 64)) + 0.5) * ulp(acc)


@st.composite
def binade_edge(draw):
    """``acc`` a few ulps inside a binade, walking towards its edge:
    growing from ``2**(e+1) - j*u`` or shrinking from ``2**e + j*u``,
    by a ``value`` an exact, tie or in-between multiple of ``u``."""
    e = draw(st.integers(-1022, 1023))
    j = draw(st.integers(1, 64))
    grow = draw(st.booleans())
    u = ldexp(1.0, e - 52)
    acc = ldexp(float(2 ** 53 - j if grow else 2 ** 52 + j), e - 52)
    step = (draw(st.integers(0, 4)) + draw(st.sampled_from(
        (0.0, 0.25, 0.375, 0.4375, 0.5, 0.625, 0.75)))) * u
    sign = draw(SIGN)
    return sign * acc, sign * (step if grow else -step)


PAIR = st.one_of(st.tuples(TERM, TERM), zero_crossing(), tie(),
                 binade_edge())


@given(PAIR, st.integers(0, 3000))
@settings(max_examples=1000, deadline=None)
def test_prop_add_repeated_is_the_loop(pair, times):
    acc, value = pair
    assert (add_repeated(acc, value, times).hex()
            == the_loop(acc, value, times).hex())


@given(PAIR, st.integers(10_000, 200_000))
@settings(max_examples=25, deadline=None)
def test_prop_add_repeated_is_the_loop_over_long_runs(pair, times):
    acc, value = pair
    assert (add_repeated(acc, value, times).hex()
            == the_loop(acc, value, times).hex())


@pytest.mark.parametrize("acc, value, times, expected", [
    # Dyadic, non-integer terms: every partial sum is exact.
    (0.0, 2 ** -10, 10 ** 12, 10 ** 12 * 2 ** -10),
    (0.0, 3 * 2 ** -20, 10 ** 12, 3 * 10 ** 12 * 2 ** -20),
    # Fixed points: each add rounds back to where it started.
    (2.0 ** 53, 1.0, 10 ** 15, 2.0 ** 53),
    (1.0, 2 ** -54, 10 ** 15, 1.0),
    # A tie from an odd last bit rounds up once, then never again.
    (1.0 + 2 ** -52, 2 ** -53, 10 ** 15, 1.0 + 2 ** -51),
])
def test_add_repeated_costs_binades_not_terms(acc, value, times, expected):
    assert add_repeated(acc, value, times).hex() == expected.hex()


def test_add_repeated_refuses_a_negative_count():
    """The loop books nothing for a negative count; the product form
    once booked ``times * value`` anyway."""
    with pytest.raises(ValueError):
        add_repeated(0.0, 1.0, -3)


def test_add_repeated_of_nothing_keeps_the_bits():
    assert add_repeated(-0.0, 5.0, 0).hex() == (-0.0).hex()


def test_add_repeated_refuses_the_product_when_it_rounds():
    """The case the shortcut gets wrong: 0.1 added ten times is not 1.0,
    and integers past 2**53 stop adding exactly."""
    assert add_repeated(0.0, 0.1, 10) == 0.9999999999999999 != 10 * 0.1
    big = float(2 ** 53)
    assert add_repeated(big, 1.0, 5) == big  # each +1.0 rounds back down
    assert big + 5 * 1.0 != big
    assert add_repeated(3.0, 4.0, 1_000_000) == 4_000_003.0
