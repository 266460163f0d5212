"""fig 11 site selection: the endpoints attach where they always did.

Hop counts once came from a breadth-first search of fig 11's own (at
first with each router's neighbours sorted on every visit); they are
now SPF costs over the converged link-state graph.  Hop distances and
the ``(-hops, a, b)`` minimum depend on neither the search nor its
visit order, so these are the pairs the sorted BFS chose.
"""

import pytest

from repro.sim import Kernel
from repro.net import Network, generate_topology
from repro.experiments.route_exp import _farthest_router_pair

#: (kind, routers) -> pair per seed 1..5.  Only ``waxman`` draws from
#: the seed; the fat tree and the multi-PoP WAN are built by rule.
CHOSEN = {
    ("waxman", 56): [("w04", "w45"), ("w10", "w28"), ("w19", "w28"),
                     ("w03", "w31"), ("w10", "w54")],
    ("waxman", 24): [("w00", "w05"), ("w00", "w10"), ("w00", "w11"),
                     ("w01", "w09"), ("w01", "w06")],
    ("fattree", 20): [("ftc00", "ftc02")] * 5,
    ("wan", 24): [("pop0r2", "pop2r2")] * 5,
}


@pytest.mark.parametrize("kind,routers", sorted(CHOSEN))
def test_farthest_router_pair_is_the_one_the_sorted_bfs_chose(kind, routers):
    for seed, expected in enumerate(CHOSEN[(kind, routers)], start=1):
        net = Network(Kernel(), default_bandwidth_bps=10e6)
        generate_topology(net, kind, routers, seed=seed)
        assert _farthest_router_pair(net) == expected, (kind, routers, seed)
