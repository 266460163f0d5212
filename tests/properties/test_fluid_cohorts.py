"""Property tests: a cohort flow is its members, bit for bit.

:class:`~repro.fluid.engine.FluidFlow` carries a multiplicity, and the
engine promises that a flow of ``members`` streams books every shared
accumulator exactly as ``members`` single flows added in a row would.
The oracle here is that expansion itself: each random program is run
twice, once with cohorts and once with every cohort spelled out as
single flows by :class:`Expanded`, and the two worlds must agree with
``==`` — not approximately — on every link ledger, share, residual and
queue delay and on every member's own ledgers.  The same holds for the
arithmetic underneath, :func:`~repro.sim.quantize.add_repeated`.
"""

from hypothesis import given, settings, strategies as st

from repro.fluid.engine import FluidEngine
from repro.sim.kernel import Kernel
from repro.sim.quantize import add_repeated

QUANTUM = 1e-3
CAPACITY = st.one_of(st.integers(1_000_000, 50_000_000).map(float),
                     st.floats(min_value=1e6, max_value=50e6))
#: Integer-valued rates take the exact product path, the others the
#: member-by-member loop; programs mix both on the same accumulators.
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


@given(
    st.one_of(st.integers(0, 2 ** 54).map(float),
              st.floats(min_value=0.0, max_value=1e18)),
    st.one_of(st.integers(0, 2 ** 40).map(float),
              st.floats(min_value=0.0, max_value=1e12),
              st.floats(min_value=0.0, max_value=1e-3)),
    st.integers(0, 3000),
)
@settings(max_examples=300, deadline=None)
def test_prop_add_repeated_is_the_loop(acc, value, times):
    expected = acc
    for _ in range(times):
        expected += value
    assert add_repeated(acc, value, times) == expected


def test_add_repeated_refuses_the_product_when_it_rounds():
    """The case the shortcut gets wrong: 0.1 added ten times is not 1.0,
    and integers past 2**53 stop adding exactly."""
    assert add_repeated(0.0, 0.1, 10) == 0.9999999999999999 != 10 * 0.1
    big = float(2 ** 53)
    assert add_repeated(big, 1.0, 5) == big  # each +1.0 rounds back down
    assert big + 5 * 1.0 != big
    assert add_repeated(3.0, 4.0, 1_000_000) == 4_000_003.0
