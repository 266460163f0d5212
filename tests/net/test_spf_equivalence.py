"""Differential test: the split SPF against the one-function oracle.

``spf_first_hops`` used to rebuild the two-way adjacency on every call
by scanning the peer's neighbour tuple per edge (``any`` over a
generator: O(sum of deg^2)), and its Dijkstra pushed every edge to an
unsettled peer.  It is now ``two_way_adjacency`` (one set per LSA,
O(E), shared by every origin over one LSDB) and ``spf_search`` (pushes
only what improves a node's tentative ``(cost, first hop)``).  The old
body is kept here verbatim as the oracle: for any LSDB and any origin
both must return the same dict, item for item and in the same order.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.sim import Kernel
from repro.net import Lsa, Network, generate_topology
from repro.net.routing import (
    router_lsa,
    spf_first_hops,
    spf_search,
    two_way_adjacency,
)


# ----------------------------------------------------------------------
# The oracle: the parent commit's spf_first_hops
# ----------------------------------------------------------------------
def oracle_spf_first_hops(lsdb, origin):
    neighbors = {}
    for name, lsa in lsdb.items():
        mutual = []
        for peer, cost in lsa.neighbors:
            peer_lsa = lsdb.get(peer)
            if peer_lsa is not None and any(
                    back == name for back, _ in peer_lsa.neighbors):
                mutual.append((peer, cost))
        neighbors[name] = sorted(mutual)
    best = {}
    heap = [(0.0, "", origin)]
    while heap:
        cost, first_hop, node = heapq.heappop(heap)
        if node in best:
            continue
        best[node] = (cost, first_hop)
        for peer, edge_cost in neighbors.get(node, ()):
            if peer not in best:
                heapq.heappush(
                    heap, (cost + edge_cost, first_hop or peer, peer))
    table = {}
    for name, lsa in lsdb.items():
        reached = best.get(name)
        if reached is None:
            continue
        router_cost, router_fh = reached
        for host in lsa.stubs:
            candidate = (router_cost + 1.0, router_fh or host)
            incumbent = table.get(host)
            if incumbent is None or candidate < incumbent:
                table[host] = candidate
    for name, reached in best.items():
        if name != origin:
            table[name] = reached
    return table


def assert_same_tables(lsdb, origins):
    graph = two_way_adjacency(lsdb)
    for origin in origins:
        expected = list(oracle_spf_first_hops(lsdb, origin).items())
        assert list(spf_first_hops(lsdb, origin).items()) == expected
        assert list(spf_search(graph, origin).items()) == expected


# ----------------------------------------------------------------------
# Random LSDBs
# ----------------------------------------------------------------------
ROUTERS = [f"r{i}" for i in range(7)]
HOSTS = [f"h{i}" for i in range(3)]
#: Few distinct values, so paths of equal cost over different hop
#: counts (and with them first-hop tie-breaks between a node settled
#: early and one settled late) are the common case.
COSTS = st.sampled_from([1.0, 1.0, 2.0, 3.0, 0.5])


@st.composite
def lsdbs(draw):
    """An LSDB as a flood in progress leaves it.

    Directed edges are drawn independently, so an adjacency may be
    advertised one way only, with a different cost each way, or more
    than once (parallel links); a router may be named as a peer and
    hold no LSA; stubs may hang off several routers; nothing forces
    the graph to be connected; the dict's order is drawn too.
    """
    edges = draw(st.lists(
        st.tuples(st.sampled_from(ROUTERS), st.sampled_from(ROUTERS), COSTS,
                  st.sampled_from(["both", "both", "both", "one-way"]),
                  COSTS),
        max_size=24))
    advertised = {name: [] for name in ROUTERS}
    for a, b, cost, ways, back_cost in edges:
        advertised[a].append((b, cost))
        if ways == "both":
            advertised[b].append((a, back_cost))
    stubs = {name: draw(st.lists(st.sampled_from(HOSTS), unique=True,
                                 max_size=2))
             for name in ROUTERS}
    present = draw(st.permutations(ROUTERS))
    present = present[:draw(st.integers(0, len(ROUTERS)))]
    return {
        name: Lsa(name, draw(st.integers(0, 3)),
                  tuple(sorted(advertised[name])),
                  tuple(sorted(stubs[name])))
        for name in present
    }


@settings(max_examples=400, deadline=None)
@given(lsdbs())
def test_split_spf_returns_the_oracles_table_item_for_item(lsdb):
    assert_same_tables(lsdb, ROUTERS + HOSTS)


def test_late_equal_cost_candidate_with_smaller_first_hop_wins():
    # z settles first (cost 1) and offers p at (3, "z"); a settles later
    # (cost 2) and offers p at (3, "a").  The relax test has to compare
    # (cost, first hop), not cost alone, for p to leave through a.
    def both_ways(*edges):
        advertised = {}
        for a, b, cost in edges:
            advertised.setdefault(a, []).append((b, cost))
            advertised.setdefault(b, []).append((a, cost))
        return {name: Lsa(name, 1, tuple(sorted(peers)), ())
                for name, peers in advertised.items()}

    lsdb = both_ways(("o", "z", 1.0), ("o", "a", 2.0),
                     ("z", "p", 2.0), ("a", "p", 1.0))
    assert spf_first_hops(lsdb, "o")["p"] == (3.0, "a")
    assert_same_tables(lsdb, sorted(lsdb))


def test_fig11_graph_with_a_half_learned_cut():
    kernel = Kernel()
    net = Network(kernel, default_bandwidth_bps=10e6)
    generated = generate_topology(net, "waxman", 56, seed=1)
    lsdb = {name: router_lsa(net, name, 1) for name in generated.routers}
    names = sorted(lsdb)
    assert_same_tables(lsdb, names)
    # One endpoint of a backbone link has re-originated, the other's
    # LSA still advertises the edge: the adjacency is one-way.
    a, b = generated.links[0]
    stale = lsdb[a]
    lsdb[a] = Lsa(a, 2, tuple(edge for edge in stale.neighbors
                              if edge[0] != b), stale.stubs)
    assert b not in dict(two_way_adjacency(lsdb)[a][0])
    assert a not in dict(two_way_adjacency(lsdb)[b][0])
    assert_same_tables(lsdb, names)
