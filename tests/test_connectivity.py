import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
    ConnectivityResult,
    Graph,
    PathSystem,
    brute_force_connectivity,
    components,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    decode_graph6,
    delete_edges,
    delete_vertices,
    disjoint_union,
    edge_connectivity,
    edge_pair,
    edge_pair_variant4,
    empty_graph,
    encode_graph6,
    line_graph,
    line_graph_family,
    max_edge_disjoint_paths,
    max_vertex_disjoint_paths,
    path_graph,
    vertex_connectivity,
    vertex_pair,
    verify_disconnecting_set,
)
from specpairs.connectivity import _cut, _dominating_set, _fan, _flow, _network, _pivot
from tests.conftest import random_graph


# -- known global values ---------------------------------------------------------


def test_complete_graph_conventions():
    r = vertex_connectivity(complete_graph(5))
    assert r.value == 4 and r.witness is None and r.kind == "vertex"
    assert vertex_connectivity(empty_graph(1)).value == 0
    assert vertex_connectivity(empty_graph(0)).value == 0
    assert edge_connectivity(empty_graph(1)).witness is None
    r = edge_connectivity(complete_graph(5))
    assert r.value == 4 and len(r.witness) == 4


def test_disconnected_graphs():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert vertex_connectivity(g).value == 0
    assert vertex_connectivity(g).witness == ()
    assert edge_connectivity(g).value == 0
    assert edge_connectivity(g).witness == ()


@pytest.mark.parametrize(
    "g",
    [
        disjoint_union(complete_graph(4), empty_graph(1)),
        disjoint_union(empty_graph(1), complete_graph(4)),
        disjoint_union(cycle_graph(5), cycle_graph(5)),
        disjoint_union(path_graph(3), complete_graph(5)),
    ],
    ids=["K4+K1", "K1+K4", "C5+C5", "P3+K5"],
)
def test_disconnected_graphs_need_no_component_scan(g, monkeypatch):
    # the pair loop reaches a sink in another component, where the flow
    # is 0 and its final BFS crosses no arc, so the witness is empty
    def refuse(_):
        raise AssertionError("components() called")

    monkeypatch.setattr("specpairs.connectivity.components", refuse)
    assert vertex_connectivity(g) == ConnectivityResult(0, (), "vertex")
    assert edge_connectivity(g) == ConnectivityResult(0, (), "edge")


@pytest.mark.parametrize(
    "g,kv,ke",
    [
        (cycle_graph(6), 2, 2),
        (path_graph(4), 1, 1),
        (complete_bipartite(3, 4), 3, 3),
        (complete_bipartite(1, 5), 1, 1),
    ],
)
def test_known_connectivities(g, kv, ke):
    rv, re = vertex_connectivity(g), edge_connectivity(g)
    assert rv.value == kv and re.value == ke
    assert verify_disconnecting_set(g, rv.witness)
    assert verify_disconnecting_set(g, re.witness)
    assert len(rv.witness) == kv and len(re.witness) == ke


def test_witnesses_are_sorted_and_normalized():
    re = edge_connectivity(cycle_graph(5))
    assert all(u < v for u, v in re.witness)
    assert list(re.witness) == sorted(re.witness)
    rv = vertex_connectivity(complete_bipartite(2, 5))
    assert list(rv.witness) == sorted(rv.witness)


def test_results_are_deterministic():
    g = random_graph(np.random.default_rng(3), 12, 0.3)
    first_v = vertex_connectivity(g)
    first_e = edge_connectivity(g)
    for _ in range(3):
        assert vertex_connectivity(g) == first_v
        assert edge_connectivity(g) == first_e


def test_vertex_witness_when_a_source_arc_is_cut():
    # for the pair (s, z2) the minimal minimum cut of the split network
    # crosses the arc s_out -> z1_in and the split arc of y; reading off
    # split arcs alone gives {y}, which disconnects nothing
    names = "s v y z1 z2 z3 a b c t".split()
    at = {x: i for i, x in enumerate(names)}
    edges = (
        "s-v s-y s-z1 z1-y z1-z2 z2-y z2-z3 z3-y z3-z1 "
        "v-a v-b y-a y-b a-b a-t b-t c-t c-a c-b"
    ).split()
    g = Graph.from_edges(
        len(names), [tuple(at[x] for x in e.split("-")) for e in edges]
    )
    r = vertex_connectivity(g)
    assert r.value == 2 == brute_force_connectivity(g, "vertex", 2)
    assert len(r.witness) == 2
    assert verify_disconnecting_set(g, r.witness)


def _connected_random_graph(n, seed, p):
    """An Erdos-Renyi sample joined up by a random spanning tree."""
    rng = np.random.default_rng(seed)
    adj = random_graph(rng, n, p).adj.copy()
    order = rng.permutation(n)
    for i in range(1, n):
        u, v = order[i], order[int(rng.integers(i))]
        adj[u, v] = adj[v, u] = True
    return Graph(n, adj)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=12, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.02, max_value=0.6),
)
def test_flow_agrees_with_networkx(n, seed, p):
    nx = pytest.importorskip("networkx")
    g = _connected_random_graph(n, seed, p)
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(n))
    kv, ke = vertex_connectivity(g), edge_connectivity(g)
    assert kv.value == nx.node_connectivity(h)
    assert ke.value == nx.edge_connectivity(h)
    for r in (kv, ke):
        if r.witness is not None:
            assert len(r.witness) == r.value
            assert verify_disconnecting_set(g, r.witness)
    # local flows, uncapped, against networkx's own local connectivities
    for s, t in ((0, n - 1), (1, n // 2), (n // 3, 2)):
        vps = max_vertex_disjoint_paths(g, s, t)
        eps = max_edge_disjoint_paths(g, s, t)
        vps.validate(g)
        eps.validate(g)
        if not g.has_edge(s, t):
            assert vps.count == nx.node_connectivity(h, s, t)
        assert eps.count == nx.edge_connectivity(h, s, t)


def test_local_flows_agree_with_networkx_on_every_pair():
    # on this sample some augmenting path cancels flow on an edge arc of
    # the split network, after which the reversed arc must die again
    nx = pytest.importorskip("networkx")
    g = random_graph(np.random.default_rng(3), 20, 0.4)
    h = nx.Graph(g.edges())
    for s, t in combinations(range(g.n), 2):
        if not g.has_edge(s, t):
            ps = max_vertex_disjoint_paths(g, s, t)
            assert ps.count == nx.node_connectivity(h, s, t)
            ps.validate(g)
        ps = max_edge_disjoint_paths(g, s, t)
        assert ps.count == nx.edge_connectivity(h, s, t)
        ps.validate(g)


# -- the flow core ----------------------------------------------------------------


def _directed(n, arcs):
    """(out, arcs_in) bitmasks of a directed unit network on nodes 0..n-1."""
    out, arcs_in = [0] * n, [0] * n
    for a, b in arcs:
        out[a] |= 1 << b
        arcs_in[b] |= 1 << a
    return out, arcs_in


def _flow_arcs(fout):
    n = len(fout)
    return [(a, b) for a in range(n) for b in range(n) if fout[a] >> b & 1]


# levels {0} {1, 2} {3, 4, 5} {6, 7} {8}.  The first trace back from 8 takes
# 8 <- 6 <- 3 <- 1 <- 0.  The second takes 8 <- 7 <- 4 <- 1 and finds 0 -> 1
# saturated: 1 and then 4 lead nowhere and must be pruned before the trace
# turns to 7 <- 5 <- 2 <- 0, all in the same phase.
_DEAD_END = _directed(
    9,
    [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 6), (4, 7), (5, 7), (6, 8), (7, 8)],
)


def test_flow_prunes_a_dead_end_and_finishes_the_phase():
    out, arcs_in = _DEAD_END
    value, fout, seen = _flow(out, arcs_in, 1 << 0, 1 << 8)
    assert value == 2
    assert _flow_arcs(fout) == [(0, 1), (0, 2), (1, 3), (2, 5), (3, 6), (5, 7), (6, 8), (7, 8)]
    assert seen == 1 << 0  # both arcs out of the source are saturated


def test_flow_stops_at_its_cap_in_the_middle_of_a_phase():
    out, arcs_in = _DEAD_END
    value, fout, seen = _flow(out, arcs_in, 1 << 0, 1 << 8, cap=1)
    assert (value, seen) == (1, None)
    assert _flow_arcs(fout) == [(0, 1), (1, 3), (3, 6), (6, 8)]
    assert _flow(out, arcs_in, 1 << 0, 1 << 8, cap=0) == (0, [0] * 9, None)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.1, max_value=0.7),
    cap=st.integers(min_value=0, max_value=12),
)
def test_capped_flows_agree_with_networkx(n, seed, p, cap):
    nx = pytest.importorskip("networkx")
    g = random_graph(np.random.default_rng(seed), n, p)
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(n))
    split, plain = _network(g), (g.rows, g.rows)
    for s, t in ((0, n - 1), (1, n // 2), (n // 3, 2)):
        if s == t:
            continue
        value, _, seen = _flow(*plain, 1 << s, 1 << t, cap=cap)
        local = nx.edge_connectivity(h, s, t)
        assert value == min(cap, local)
        assert (seen is None) == (local >= cap)
        if not g.has_edge(s, t):
            value, _, seen = _flow(*split, 1 << 2 * s + 1, 1 << 2 * t, cap=cap)
            local = nx.node_connectivity(h, s, t)
            assert value == min(cap, local)
            assert (seen is None) == (local >= cap)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.1, max_value=0.7),
    cap=st.sampled_from([None, 1, 2, 3]),
)
def test_set_flows_agree_with_contracted_flows(n, seed, p, cap):
    # a flow from {a, b} to {c, d} is a flow between the two sets each
    # contracted to one node, whose parallel arcs add their capacities
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    a, b, c, d = (int(v) for v in rng.permutation(n)[:4])
    name = {a: "S", b: "S", c: "T", d: "T"}
    contracted = nx.DiGraph()
    contracted.add_nodes_from(["S", "T"])
    for u, v in g.edges():
        u, v = name.get(u, u), name.get(v, v)
        if u != v:
            for x, y in ((u, v), (v, u)):
                if contracted.has_edge(x, y):
                    contracted[x][y]["capacity"] += 1
                else:
                    contracted.add_edge(x, y, capacity=1)
    local = nx.maximum_flow_value(contracted, "S", "T")
    out = arcs_in = g.rows
    value, _, seen = _flow(out, arcs_in, 1 << a | 1 << b, 1 << c | 1 << d, cap=cap)
    assert value == (local if cap is None else min(cap, local))
    if cap is not None and local >= cap:
        assert seen is None
    else:
        # the final reached set holds the sources and is cut by the flow value
        assert seen >> a & seen >> b & 1 and not (seen >> c | seen >> d) & 1
        assert len(_cut(out, seen, split=False)) == value


# -- vertex connectivity of a line graph on its base graph -------------------------


def _paper_line_roots():
    pairs = [vertex_pair(k) for k in (2, 3, 4)] + [edge_pair_variant4(), edge_pair(6)]
    return [
        pytest.param(getattr(fi, which), id=f"{fi.tag}-k{fi.k}-{which}")
        for fi in pairs
        for which in ("gamma", "gamma_prime")
    ]


def _assert_routes_agree(root):
    g = line_graph(root)
    # an equal copy made by the constructor has no base graph to run on
    split, base = vertex_connectivity(Graph(g.n, g.adj)), vertex_connectivity(g)
    assert (base.value, base.witness) == (split.value, split.witness)
    if split.witness is None:  # complete: no flow on either route
        assert split.route is None and base.route is None
    else:
        assert (split.route, base.route) == ("split-network", "base-graph")
    return base


@pytest.mark.parametrize("root", _paper_line_roots())
def test_line_graph_kappa_on_the_base_graph_matches_the_split_network(root):
    base = _assert_routes_agree(root)
    assert verify_disconnecting_set(line_graph(root), base.witness)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.0, max_value=0.8),
)
def test_line_graph_routes_agree_on_random_graphs(n, seed, p):
    # sparse samples are often disconnected, and some have no edges
    _assert_routes_agree(random_graph(np.random.default_rng(seed), n, p))


@pytest.mark.parametrize(
    "root",
    [
        pytest.param(complete_bipartite(1, 5), id="star"),  # L is K5
        pytest.param(cycle_graph(3), id="triangle"),  # L is K3
        pytest.param(disjoint_union(cycle_graph(3), cycle_graph(3)), id="two-triangles"),
        pytest.param(disjoint_union(path_graph(2), path_graph(2)), id="two-edges"),
        pytest.param(path_graph(6), id="path"),
        pytest.param(complete_graph(5), id="k5"),
        pytest.param(complete_bipartite(3, 4), id="k34"),
    ],
)
def test_line_graph_routes_agree_on_small_graphs(root):
    _assert_routes_agree(root)


def test_an_equal_copy_of_a_line_graph_takes_the_split_route():
    g = line_graph(vertex_pair(3).gamma_prime)
    by_base = vertex_connectivity(g)
    assert by_base.route == "base-graph"
    copies = (
        Graph(g.n, g.adj),
        Graph.from_adjacency(g.adj),
        decode_graph6(encode_graph6(g)),
        delete_edges(g, []),
        delete_vertices(g, [])[0],
    )
    for h in copies:
        assert h == g and hash(h) == hash(g) and h.base is None
        r = vertex_connectivity(h)
        assert (r.value, r.witness) == (by_base.value, by_base.witness)
        assert r.route == "split-network"
    with pytest.raises(TypeError):
        Graph(g.n, g.adj, base=g.base)


# κ and κ′ witnesses as the one-path-per-BFS flow core gave them.  The
# source side of the minimal minimum cut is the same for every maximum
# flow, so a change in how augmenting paths are found must not move them.
_EDGES_OUT_OF_0 = tuple((0, v) for v in range(1, 13))
_PINNED_WITNESSES = {
    ("line-of-edge-variant4", "gamma"): (
        (7, (23, 24, 59, 60, 84, 85, 86)),
        (12, _EDGES_OUT_OF_0),
    ),
    ("line-of-edge-variant4", "gamma_prime"): (
        (6, (5, 11, 16, 24, 59, 60)),
        (12, _EDGES_OUT_OF_0),
    ),
    ("vertex-3", "gamma"): (
        (6, (6, 11, 12, 13, 16, 17)),
        (6, ((0, 6), (0, 11), (0, 12), (0, 13), (0, 16), (0, 17))),
    ),
    ("vertex-3", "gamma_prime"): (
        (4, (0, 1, 2, 3)),
        (6, ((0, 7), (0, 8), (0, 9), (0, 10), (0, 14), (0, 15))),
    ),
}


@pytest.mark.parametrize("family,which", sorted(_PINNED_WITNESSES), ids="-".join)
def test_witnesses_are_pinned(family, which, line_variant4, vertex3):
    fi = {"line-of-edge-variant4": line_variant4, "vertex-3": vertex3}[family]
    g = getattr(fi, which)
    kv, ke = vertex_connectivity(g), edge_connectivity(g)
    assert ((kv.value, kv.witness), (ke.value, ke.witness)) == _PINNED_WITNESSES[family, which]


def _menger_graphs():
    pairs = [vertex_pair(k) for k in (2, 3, 4)]
    pairs += [edge_pair(6), line_graph_family(edge_pair_variant4())]
    return [
        pytest.param(getattr(fi, which), id=f"{fi.tag}-k{fi.k}-{which}")
        for fi in pairs
        for which in ("gamma", "gamma_prime")
    ]


def _split_by(labels):
    """The lowest vertex of each of the first two components."""
    firsts = {}
    for v, c in enumerate(labels):
        firsts.setdefault(c, v)
    assert len(firsts) >= 2
    return firsts[0], firsts[1]


@pytest.mark.parametrize("g", _menger_graphs())
def test_menger_path_systems_meet_the_witnesses(g):
    # a witness is an upper bound on the local connectivity of any pair
    # it separates; a path system of the same size is the lower bound
    kv = vertex_connectivity(g)
    h, mapping = delete_vertices(g, kv.witness)
    back = {new: old for old, new in mapping.items()}
    s, t = (back[v] for v in _split_by(components(h).labels))
    ps = max_vertex_disjoint_paths(g, s, t)
    assert ps.count == kv.value
    ps.validate(g)

    ke = edge_connectivity(g)
    h = delete_edges(g, ke.witness)
    s, t = _split_by(components(h).labels)
    ps = max_edge_disjoint_paths(g, s, t)
    assert ps.count == ke.value
    ps.validate(g)


# -- edge connectivity from a dominating set ----------------------------------------


def _edge_connectivity_over_every_t(g):
    """edge_connectivity as the n - 1 loop over lambda(0, t) computed it."""
    if g.n <= 1:
        return ConnectivityResult(0, None, "edge")
    v0 = int(g.degrees().argmin())
    best = int(g.degrees()[v0])
    cut = tuple(sorted((min(v0, u), max(v0, u)) for u in g.neighbors(v0)))
    out = arcs_in = g.rows
    for t in range(1, g.n):
        value, _, seen = _flow(out, arcs_in, 1, 1 << t, cap=best)
        if value < best:
            best, cut = value, _cut(out, seen, split=False)
    return ConnectivityResult(best, cut, "edge")


def _assert_matches_every_t(g):
    r, ref = edge_connectivity(g), _edge_connectivity_over_every_t(g)
    assert (r.value, r.witness) == (ref.value, ref.witness)
    return r


def _planted_cut_graph(rng, a, b, joins):
    """Two dense random blocks of a and b vertices joined by up to
    ``joins`` random edges, relabelled at random."""
    n = a + b
    adj = np.zeros((n, n), dtype=bool)
    for lo, hi in ((0, a), (a, n)):
        adj[lo:hi, lo:hi] = random_graph(rng, hi - lo, 0.85).adj
    for _ in range(joins):
        u, v = int(rng.integers(0, a)), int(rng.integers(a, n))
        adj[u, v] = adj[v, u] = True
    perm = rng.permutation(n)
    return Graph(n, adj[np.ix_(perm, perm)])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.0, max_value=0.8),
    isolated=st.booleans(),
)
def test_edge_connectivity_matches_the_loop_over_every_t(n, seed, p, isolated):
    # sparse samples are often disconnected, and some have no edges
    g = random_graph(np.random.default_rng(seed), n, p)
    if isolated:
        g = disjoint_union(g, empty_graph(1))
    _assert_matches_every_t(g)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=3, max_value=12),
    b=st.integers(min_value=3, max_value=12),
    joins=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_edge_connectivity_matches_the_loop_on_planted_cuts(a, b, joins, seed):
    # joins < delta is likely, so these mostly take the witness scan
    rng = np.random.default_rng(seed)
    _assert_matches_every_t(_planted_cut_graph(rng, a, b, joins))


_PAPER_FAMILIES = (
    [("vertex", k) for k in range(2, 11)]
    + [("edge", k) for k in range(6, 15, 2)]
    + [("edge-variant4", None)]
)


@pytest.mark.parametrize("tag,k", _PAPER_FAMILIES)
def test_edge_connectivity_matches_the_loop_on_paper_families(tag, k):
    build = {"vertex": vertex_pair, "edge": edge_pair}
    fi = edge_pair_variant4() if k is None else build[tag](k)
    for g in (fi.gamma, fi.gamma_prime):
        _assert_matches_every_t(g)


def test_witness_scan_finds_the_first_separated_t():
    # K8 on 0..7 is joined by 2 edges to K6 on 8..13 and by 2 edges to K7
    # on 14..20, so lambda = 2 < delta = 5.  D = [0, 14, 8] reaches 2 first
    # at t = 14, whose least cut is the two edges into the K7; the first
    # separated t in vertex order is 8, whose least cut is the two into the K6
    adj = np.zeros((21, 21), dtype=bool)
    for lo, hi in ((0, 8), (8, 14), (14, 21)):
        adj[lo:hi, lo:hi] = ~np.eye(hi - lo, dtype=bool)
    for u, v in ((1, 8), (2, 9), (3, 14), (4, 15)):
        adj[u, v] = adj[v, u] = True
    g = Graph(21, adj)
    assert _dominating_set(g.rows) == [0, 14, 8]
    r = _assert_matches_every_t(g)
    assert r == ConnectivityResult(2, ((1, 8), (2, 9)), "edge")
    assert verify_disconnecting_set(g, r.witness)


def test_dominating_set_takes_the_lowest_index_on_ties():
    # on the 8-cycle, 0 covers 7, 0, 1; then 3, 4 and 5 each cover three of
    # 2..6 and 3 is taken; then 5 and 6 each cover both of 5, 6 and 5 is taken
    nbrs = cycle_graph(8).rows
    dom = _dominating_set(nbrs)
    assert dom == [0, 3, 5]
    covered = 0
    for v in dom:
        covered |= nbrs[v] | 1 << v
    assert covered == (1 << 8) - 1


def _dominating_set_rescoring_every_vertex(nbrs):
    """The greedy dominating set with every vertex rescored on each pick."""
    n = len(nbrs)
    closed = [m | 1 << v for v, m in enumerate(nbrs)]
    dom, uncovered = [0], ((1 << n) - 1) & ~closed[0]
    while uncovered:
        v = max(range(n), key=lambda u: (closed[u] & uncovered).bit_count())
        dom.append(v)
        uncovered &= ~closed[v]
    return dom


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.0, max_value=0.9),
)
def test_lazy_dominating_set_equals_the_rescoring_greedy(n, seed, p):
    # sparse samples leave many ties and isolated vertices, dense ones few
    nbrs = random_graph(np.random.default_rng(seed), n, p).rows
    assert _dominating_set(nbrs) == _dominating_set_rescoring_every_vertex(nbrs)


def _flow_count(g, connectivity=vertex_connectivity, pivot=None):
    """connectivity(g) and its ``_flow`` calls, with vertex_connectivity's
    pivot forced to ``pivot`` unless that is None."""
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return _flow(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("specpairs.connectivity._flow", counted)
        if pivot is not None:
            patch.setattr("specpairs.connectivity._pivot", lambda g, degs: pivot)
        result = connectivity(g)
    return result, calls


def test_edge_connectivity_runs_one_flow_per_dominating_vertex():
    # L(edge_pair(8).gamma) has n = 684 and lambda = delta; the loop over
    # every t ran 683 flows
    g = line_graph(edge_pair(8).gamma)
    dom = _dominating_set(g.rows)
    result, calls = _flow_count(g, edge_connectivity)
    assert result.value == int(g.degrees().min())
    assert calls == len(dom) - 1 == 32


# -- fans into linked vertices ------------------------------------------------------


def _pairs_of(g, pivot):
    """The Esfahanian-Hakimi pairs of ``pivot``, in vertex_connectivity's
    order: (pivot, t) for each non-neighbour t, then the non-adjacent
    pairs of its neighbours."""
    pairs = [(pivot, t) for t in range(g.n) if t != pivot and not g.adj[pivot, t]]
    pairs += [(u, w) for u, w in combinations(g.neighbors(pivot), 2) if not g.adj[u, w]]
    return pairs


def _esfahanian_hakimi_pairs(g):
    """The pairs vertex_connectivity runs, in its order: those of the
    pivot that ``_pivot`` picks."""
    return _pairs_of(g, _pivot(g, g.degrees()))


def _vertex_connectivity_every_pair_of(g, pivot):
    """vertex_connectivity as the loop running the flow of every pair of
    ``pivot`` computed it, seeded with the cut N(v0)."""
    n = g.n
    if n <= 1 or g.num_edges == n * (n - 1) // 2:
        return ConnectivityResult(max(n - 1, 0), None, "vertex")
    v0 = int(g.degrees().argmin())
    best, cut = int(g.degrees()[v0]), tuple(g.neighbors(v0))
    out, arcs_in = _network(g)
    for s, t in _pairs_of(g, pivot):
        value, _, seen = _flow(out, arcs_in, 1 << 2 * s + 1, 1 << 2 * t, cap=best)
        if value < best:
            best, cut = value, _cut(out, seen, split=True)
    return ConnectivityResult(best, cut, "vertex")


def _vertex_connectivity_every_v0_pair(g):
    """The reference: the loop over every pair of v0, the lowest-index
    minimum-degree vertex."""
    v0 = int(g.degrees().argmin()) if g.n else 0
    return _vertex_connectivity_every_pair_of(g, v0)


def _assert_matches_every_pair(g):
    r, ref = vertex_connectivity(g), _vertex_connectivity_every_v0_pair(g)
    assert (r.value, r.witness) == (ref.value, ref.witness)
    return r


def _planted_separator_graph(rng, a, b, hubs, reach):
    """Two dense random blocks of a and b vertices joined only through
    ``hubs`` vertices with up to ``reach`` edges into each block,
    relabelled at random."""
    n = a + b + hubs
    adj = np.zeros((n, n), dtype=bool)
    for lo, hi in ((0, a), (a, a + b)):
        adj[lo:hi, lo:hi] = random_graph(rng, hi - lo, 0.85).adj
        for h in range(a + b, n):
            ends = rng.integers(lo, hi, size=reach)
            adj[h, ends] = adj[ends, h] = True
    perm = rng.permutation(n)
    return Graph(n, adj[np.ix_(perm, perm)])


def _sparse_block(rng, size):
    """A sparse irregular connected graph: a Hamiltonian cycle, a random
    matching and size // 8 chords, then edges until every degree is 3."""
    adj = np.zeros((size, size), dtype=bool)
    cycle, match = rng.permutation(size), rng.permutation(size)
    half = size // 2
    edges = list(zip(cycle, np.roll(cycle, 1))) + list(zip(match[:half], match[half:]))
    for a, b in edges + list(rng.integers(0, size, size=(size // 8, 2))):
        if a != b:
            adj[a, b] = adj[b, a] = True
    for v in range(size):
        while adj[v].sum() < 3:
            free = ~adj[v]
            free[v] = False
            u = rng.choice(np.flatnonzero(free))
            adj[v, u] = adj[u, v] = True
    return adj


def _sparse_planted_graphs(seed):
    """20 graphs shaped like the benchmark's ``analyze`` inputs: orders 130
    to 220, every eighth one sparse block, the others two blocks joined
    only through 1 or 2 separator vertices with 3 or 4 edges into each."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(20):
        n = 130 + 90 * i // 19
        if i % 8 == 0:
            adj = _sparse_block(rng, n)
        else:
            cut = 1 + i % 2
            left = (n - cut) // 2
            adj = np.zeros((n, n), dtype=bool)
            for lo, hi in ((0, left), (left, n - cut)):
                adj[lo:hi, lo:hi] = _sparse_block(rng, hi - lo)
                for s in range(n - cut, n):
                    size = int(rng.integers(3, 5))
                    ends = rng.choice(np.arange(lo, hi), size=size, replace=False)
                    adj[s, ends] = adj[ends, s] = True
        perm = rng.permutation(n)
        graphs.append(Graph(n, adj[np.ix_(perm, perm)]))
    return graphs


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.0, max_value=0.8),
    isolated=st.booleans(),
)
def test_fans_keep_the_values_and_witnesses_of_every_pair(n, seed, p, isolated):
    # test_edge_connectivity_matches_the_loop_over_every_t covers kappa' here
    g = random_graph(np.random.default_rng(seed), n, p)
    if isolated:
        g = disjoint_union(g, empty_graph(1))
    _assert_matches_every_pair(g)


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=3, max_value=12),
    b=st.integers(min_value=3, max_value=12),
    joins=st.integers(min_value=0, max_value=3),
    hubs=st.integers(min_value=1, max_value=3),
    reach=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_fans_keep_the_values_and_witnesses_on_planted_cuts(a, b, joins, hubs, reach, seed):
    # low-degree hubs are often v0 and in the least separator, which only
    # the stage-2 pairs find
    rng = np.random.default_rng(seed)
    _assert_matches_every_pair(_planted_cut_graph(rng, a, b, joins))
    g = _planted_separator_graph(rng, a, b, hubs, reach)
    _assert_matches_every_pair(g)
    _assert_matches_every_t(g)


@pytest.mark.parametrize("tag,k", _PAPER_FAMILIES)
def test_fans_keep_the_values_and_witnesses_on_paper_families(tag, k):
    # kappa' of these is test_edge_connectivity_matches_the_loop_on_paper_families
    build = {"vertex": vertex_pair, "edge": edge_pair}
    fi = edge_pair_variant4() if k is None else build[tag](k)
    for g in (fi.gamma, fi.gamma_prime):
        _assert_matches_every_pair(g)


def test_fans_keep_the_values_and_witnesses_on_sparse_planted_graphs():
    kappas = set()
    for g in _sparse_planted_graphs(1):
        kappas.add(_assert_matches_every_pair(g).value)
        _assert_matches_every_t(g)
    assert {1, 2} <= kappas


def test_a_separator_through_v0_is_found_in_stage_2():
    # 0 has two neighbours in each of two K5s, on 1..5 and 6..10, so v0 = 0
    # and {0} is the only least separator.  Stage 1 gives 2; only the pairs
    # (u, w) of N(0) find 1, and an X for u that held N[0] would skip them
    adj = np.zeros((11, 11), dtype=bool)
    for lo in (1, 6):
        adj[lo : lo + 5, lo : lo + 5] = ~np.eye(5, dtype=bool)
    for v in (1, 2, 6, 7):
        adj[0, v] = adj[v, 0] = True
    g = Graph(11, adj)
    assert vertex_connectivity(g) == ConnectivityResult(1, (0,), "vertex")
    _assert_matches_every_pair(g)


def test_vertex_fans_end_at_distinct_vertices():
    # K5 on 0..4, and 4 joined to all of the K5 on 5..9: v0 = 0, delta = 4
    # and {4} separates.  From t = 5 five paths reach 4, a neighbour of 0,
    # each through its own neighbour of 4; as a fan they count once
    adj = np.zeros((10, 10), dtype=bool)
    for lo in (0, 5):
        adj[lo : lo + 5, lo : lo + 5] = ~np.eye(5, dtype=bool)
    adj[4, 5:] = adj[5:, 4] = True
    g = Graph(10, adj)
    assert vertex_connectivity(g) == ConnectivityResult(1, (4,), "vertex")
    _assert_matches_every_pair(g)


def test_edge_fans_start_from_0_alone():
    # K6 on 0..5 and K6 on 6..11 joined by the edge (0, 11): lambda = 1 and
    # D = [0, 6].  6 has five edge-disjoint paths to 11, a neighbour of 0,
    # so an X that held N[0] would certify lambda(0, 6) >= 5
    adj = np.zeros((12, 12), dtype=bool)
    for lo in (0, 6):
        adj[lo : lo + 6, lo : lo + 6] = ~np.eye(6, dtype=bool)
    adj[0, 11] = adj[11, 0] = True
    g = Graph(12, adj)
    assert _dominating_set(g.rows) == [0, 6]
    assert _assert_matches_every_t(g) == ConnectivityResult(1, ((0, 11),), "edge")


def _fan_calls(g, connectivity):
    """(src, best, certified) of every ``_fan`` call of connectivity(g)."""
    calls = []

    def recorded(out, arcs_in, near, src, sinks, best):
        certified = _fan(out, arcs_in, near, src, sinks, best)
        calls.append((src, best, certified))
        return certified

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("specpairs.connectivity._fan", recorded)
        connectivity(g)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.1, max_value=0.8),
    hubs=st.integers(min_value=1, max_value=3),
)
def test_a_certified_pair_reaches_its_cap(n, seed, p, hubs):
    # the fan lemma: whatever a fan certifies, the pair's own run reaches
    rng = np.random.default_rng(seed)
    planted = _planted_separator_graph(rng, n // 2 + 1, n - n // 2, hubs, 2)
    for g in (random_graph(rng, n, p), planted):
        split, plain = _network(g), (g.rows, g.rows)
        pairs = _esfahanian_hakimi_pairs(g) if g.num_edges < g.n * (g.n - 1) // 2 else []
        calls = _fan_calls(g, vertex_connectivity)
        assert len(calls) == len(pairs)
        for (r, t), (src, best, certified) in zip(pairs, calls):
            assert src == 1 << 2 * t + 1
            if certified:
                assert _flow(*split, 1 << 2 * r + 1, 1 << 2 * t, cap=best)[0] == best
        for src, best, certified in _fan_calls(g, edge_connectivity):
            if certified:
                assert _flow(*plain, 1, src, cap=best)[0] == best


def test_kappa_of_the_edge_family_runs_few_flows():
    # edge_pair(14).gamma has n = 132 and kappa = 3; running every pair's
    # flow took 271 flows
    result, calls = _flow_count(edge_pair(14).gamma)
    assert result.value == 3
    assert calls <= 10


# (Gamma, Gamma') flows of vertex_pair(k) with the pivot in the clique U; with
# the pivot forced to v0 they are 48/43, 67/58, 89/75, 114/94, 142/115 and 173/138
_VERTEX_FAMILY_FLOWS = {5: (24, 12), 6: (29, 14), 7: (34, 16), 8: (39, 18), 9: (44, 20), 10: (49, 22)}


@pytest.mark.parametrize("k", sorted(_VERTEX_FAMILY_FLOWS))
def test_the_vertex_family_pivots_into_the_clique_and_runs_fewer_flows(k):
    fi = vertex_pair(k)
    for g, pinned in zip((fi.gamma, fi.gamma_prime), _VERTEX_FAMILY_FLOWS[k]):
        assert _pivot(g, g.degrees()) == fi.named["U"][0]
        assert _flow_count(g)[1] == pinned < _flow_count(g, pivot=0)[1]


# flows of the 20 graphs of _sparse_planted_graphs(1), all from v0
_SPARSE_PLANTED_FLOWS = (99, 61, 26, 69, 35, 68, 39, 75, 116, 83, 42, 87, 41, 92, 40, 94, 148, 101, 54, 104)


def _steady_pivot_graphs():
    """(graph, flows) where the pivot stays at v0, with the flows that
    v0's pairs take there: the edge family, the variant, both line-graph
    pairs and the sparse planted graphs."""
    cases = []
    for k in range(6, 15, 2):
        fi = edge_pair(k)
        cases += [pytest.param(fi.gamma, 6, id=f"edge{k}"), pytest.param(fi.gamma_prime, 6, id=f"edge{k}'")]
    fi = edge_pair_variant4()
    cases += [pytest.param(fi.gamma, 9, id="variant4"), pytest.param(fi.gamma_prime, 8, id="variant4'")]
    for label, base, flows in (("variant4", fi, (86, 56)), ("edge6", edge_pair(6), (325, 236))):
        lf = line_graph_family(base)
        cases += [
            pytest.param(lf.gamma, flows[0], id=f"L({label})"),
            pytest.param(lf.gamma_prime, flows[1], id=f"L({label})'"),
        ]
    for i, (g, flows) in enumerate(zip(_sparse_planted_graphs(1), _SPARSE_PLANTED_FLOWS)):
        cases.append(pytest.param(g, flows, id=f"sparse{i}"))
    return cases


@pytest.mark.parametrize("g,flows", _steady_pivot_graphs())
def test_the_pivot_stays_at_v0_off_the_vertex_family(g, flows):
    assert _pivot(g, g.degrees()) == int(g.degrees().argmin())
    assert _flow_count(g)[1] == flows


@pytest.mark.parametrize("k", [*range(2, 13), 20])
def test_a_moved_pivot_keeps_the_vertex_family_witnesses(k):
    # Gamma's witness is the seed cut N(v0), which stays; Gamma' reaches k + 1
    # first at a pair whose least cut is the one v0's pairs found
    fi = vertex_pair(k)
    for g, kappa in ((fi.gamma, 2 * k), (fi.gamma_prime, k + 1)):
        assert (_pivot(g, g.degrees()) != 0) == (k >= 5)
        assert _assert_matches_every_pair(g).value == kappa


def _clique_beside_an_independent_class(rng, x, u, r, q):
    """Shaped like vertex_pair: an independent class X = [0, x), a clique U
    on the next u vertices joined to all of X, and a random graph of density
    q on the last r vertices, V, with no edge between U and V.  Then each
    vertex of X takes random neighbours in V, and each vertex of V in V and
    X - {0}, up to the degree u + x - 1 of U where room allows.  So v0 = 0,
    and the vertices of U share its degree with a far denser neighbourhood."""
    n = x + u + r
    adj = np.zeros((n, n), dtype=bool)
    adj[x : x + u, x : x + u] = ~np.eye(u, dtype=bool)
    adj[:x, x : x + u] = adj[x : x + u, :x] = True
    adj[x + u :, x + u :] = random_graph(rng, r, q).adj
    vs = np.arange(x + u, n)
    rooms = [(v, vs) for v in range(x)] + [(v, np.r_[1:x, vs]) for v in vs]
    for v, room in rooms:
        free = room[~adj[v, room] & (room != v)]
        need = u + x - 1 - int(adj[v].sum())
        if need > 0:
            ends = rng.choice(free, size=min(need, len(free)), replace=False)
            adj[v, ends] = adj[ends, v] = True
    return Graph(n, adj)


def _pivot_by_the_rule(g):
    """The pivot rule read plainly, with s(v) = C(delta, 2) - e(N(v))
    counted on adjacency submatrices: the vertex p of degree delta with the
    least s, the lowest index on ties, if s(v0) - s(p) > n - 1 - delta."""
    degs = g.degrees()
    delta, v0 = int(degs.min()), int(degs.argmin())

    def s(v):
        nbrs = g.adj[v]
        return math.comb(delta, 2) - int(g.adj[np.ix_(nbrs, nbrs)].sum()) // 2

    p = min((v for v in range(g.n) if degs[v] == delta), key=s)
    return p if s(v0) - s(p) > g.n - 1 - delta else v0


@settings(max_examples=100, deadline=None)
@given(
    x=st.integers(min_value=2, max_value=5),
    q=st.floats(min_value=0.0, max_value=0.6),
    n=st.integers(min_value=2, max_value=24),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_the_pivot_follows_the_rule(x, q, n, p, seed, data):
    # s(v0) - s(p) equals n - 1 - delta on about 9% of the planted graphs
    u = data.draw(st.integers(min_value=3, max_value=(15 - x) // 2), label="u")
    r = data.draw(st.integers(min_value=u + 1, max_value=16 - x - u), label="r")
    rng = np.random.default_rng(seed)
    for g in (_clique_beside_an_independent_class(rng, x, u, r, q), random_graph(rng, n, p)):
        if g.num_edges < g.n * (g.n - 1) // 2:
            assert _pivot(g, g.degrees()) == _pivot_by_the_rule(g)


@settings(max_examples=60, deadline=None)
@given(
    x=st.integers(min_value=2, max_value=5),
    q=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_every_minimum_degree_pivot_gives_the_value(x, q, seed, data):
    # n <= 16; the rule moves the pivot into U on about 40% of these graphs,
    # and each vertex of minimum degree, U's among them, is forced in turn
    u = data.draw(st.integers(min_value=3, max_value=(15 - x) // 2), label="u")
    r = data.draw(st.integers(min_value=u + 1, max_value=16 - x - u), label="r")
    g = _clique_beside_an_independent_class(np.random.default_rng(seed), x, u, r, q)
    ref = _vertex_connectivity_every_v0_pair(g)
    assert brute_force_connectivity(g, "vertex", ref.value) == ref.value

    def check(result, pivot):
        assert result.value == ref.value
        assert len(result.witness) == result.value
        assert verify_disconnecting_set(g, result.witness)
        # the fans keep every pair's witness from whichever pivot runs them
        assert result == _vertex_connectivity_every_pair_of(g, pivot)

    degs = g.degrees()
    check(vertex_connectivity(g), _pivot(g, degs))
    for pivot in map(int, np.flatnonzero(degs == degs.min())):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("specpairs.connectivity._pivot", lambda g, degs: pivot)
            check(vertex_connectivity(g), pivot)


# -- local path systems -----------------------------------------------------------


def test_vertex_disjoint_paths_on_k4():
    ps = max_vertex_disjoint_paths(complete_graph(4), 0, 3)
    assert ps.count == 3 and ps.mode == "vertex"
    ps.validate(complete_graph(4))


def test_vertex_disjoint_paths_on_cycle():
    ps = max_vertex_disjoint_paths(cycle_graph(6), 0, 3)
    assert ps.count == 2
    ps.validate(cycle_graph(6))


def test_edge_disjoint_paths():
    ps = max_edge_disjoint_paths(cycle_graph(4), 0, 2)
    assert ps.count == 2 and ps.mode == "edge"
    ps.validate(cycle_graph(4))
    ps = max_edge_disjoint_paths(complete_graph(5), 1, 4)
    assert ps.count == 4
    ps.validate(complete_graph(5))


def test_path_endpoints_validated():
    with pytest.raises(ValueError):
        max_vertex_disjoint_paths(cycle_graph(4), 0, 0)
    with pytest.raises(ValueError):
        max_edge_disjoint_paths(cycle_graph(4), 0, 9)


def test_disconnected_endpoints_give_empty_system():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    ps = max_vertex_disjoint_paths(g, 0, 4)
    assert ps.count == 0
    ps.validate(g)


def test_path_system_validate_catches_faults():
    g = cycle_graph(4)
    with pytest.raises(ValueError, match="from s to t"):
        PathSystem(0, 2, "vertex", ((0, 1),)).validate(g)
    with pytest.raises(ValueError, match="non-edge"):
        PathSystem(0, 2, "vertex", ((0, 2),)).validate(g)
    with pytest.raises(ValueError, match="interior"):
        PathSystem(0, 2, "vertex", ((0, 1, 2), (0, 1, 2))).validate(g)
    with pytest.raises(ValueError, match="reuses edge"):
        PathSystem(0, 2, "edge", ((0, 1, 2), (0, 1, 2))).validate(g)
    with pytest.raises(ValueError, match="repeats"):
        PathSystem(0, 2, "vertex", ((0, 1, 0, 1, 2),)).validate(g)
    with pytest.raises(ValueError, match="mode"):
        PathSystem(0, 2, "diagonal", ()).validate(g)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=11),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.2, max_value=0.8),
)
def test_path_systems_validate_on_random_graphs(n, seed, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    s, t = 0, n - 1
    vps = max_vertex_disjoint_paths(g, s, t)
    eps = max_edge_disjoint_paths(g, s, t)
    vps.validate(g)
    eps.validate(g)
    # vertex-disjoint systems are edge-disjoint, so the counts nest
    assert vps.count <= eps.count


# -- brute-force oracle ------------------------------------------------------------


def test_brute_force_known_values():
    assert brute_force_connectivity(cycle_graph(6), "vertex", 6) == 2
    assert brute_force_connectivity(cycle_graph(6), "edge", 6) == 2
    assert brute_force_connectivity(path_graph(4), "vertex", 4) == 1
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    assert brute_force_connectivity(g, "vertex", 2) == 0
    # complete graphs admit no disconnecting vertex set at all
    assert brute_force_connectivity(complete_graph(4), "vertex", 4) is None
    # a budget below the answer comes back empty-handed
    assert brute_force_connectivity(cycle_graph(6), "vertex", 1) is None


def test_brute_force_argument_validation():
    with pytest.raises(ValueError, match="mode"):
        brute_force_connectivity(cycle_graph(4), "face", 2)
    with pytest.raises(ValueError, match="nonnegative"):
        brute_force_connectivity(cycle_graph(4), "vertex", -1)


def test_brute_force_refuses_oversized_scans():
    g = complete_graph(8)
    with pytest.raises(ValueError, match="ceiling"):
        brute_force_connectivity(g, "edge", 28, ceiling=1000)
    # a generous ceiling admits the same call
    assert brute_force_connectivity(g, "edge", 7, ceiling=2_000_000) == 7


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.1, max_value=0.9),
)
def test_flow_agrees_with_brute_force(n, seed, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    kv = vertex_connectivity(g).value
    ke = edge_connectivity(g).value
    bv = brute_force_connectivity(g, "vertex", n)
    # kappa' never exceeds the minimum degree, so that budget finds it; a
    # budget of n would scan 2.5M edge subsets of a dense 8-vertex graph,
    # past the oracle's ceiling
    be = brute_force_connectivity(g, "edge", max(g.min_degree(), 1))
    complete = g.num_edges == n * (n - 1) // 2
    if complete:
        assert bv is None and kv == max(n - 1, 0)
    else:
        assert bv == kv
    if n <= 1:
        assert be is None and ke == 0
    else:
        assert be == ke if ke > 0 else be == 0


# -- witness verification -----------------------------------------------------------


def test_verify_disconnecting_set():
    g = cycle_graph(6)
    assert verify_disconnecting_set(g, (0, 3))
    assert not verify_disconnecting_set(g, (0, 1))
    assert verify_disconnecting_set(g, ((0, 1), (2, 3)))
    assert not verify_disconnecting_set(g, ((0, 1),))
    with pytest.raises(ValueError):
        verify_disconnecting_set(g, (99,))
    with pytest.raises(ValueError):
        verify_disconnecting_set(g, ((0, 2),))  # not an edge


def test_verify_disconnecting_set_edge_cases():
    g = cycle_graph(6)
    assert not verify_disconnecting_set(g, ())
    assert verify_disconnecting_set(disjoint_union(g, path_graph(2)), ())
    assert verify_disconnecting_set(g, [np.int64(0), np.int64(3)])
    assert verify_disconnecting_set(g, ((1, 0), (np.int64(3), np.int64(2))))
    assert verify_disconnecting_set(g, (0, 3, 3))  # a repeated vertex is one
    assert not verify_disconnecting_set(g, tuple(range(6)))  # nothing left
    assert not verify_disconnecting_set(g, tuple(range(5)))  # one vertex left
    with pytest.raises(ValueError, match="vertex -1 out of range for n=6"):
        verify_disconnecting_set(g, (0, -1))
    with pytest.raises(ValueError, match=r"edge \(0, 1\) not in graph"):
        verify_disconnecting_set(g, ((0, 1), (2, 3), (0, 1)))  # repeated
    with pytest.raises(ValueError, match=r"edge \(1, 0\) not in graph"):
        verify_disconnecting_set(g, ((0, 1), (1, 0)))  # repeated, reversed
    with pytest.raises(ValueError, match=r"edge \(2, 2\) not in graph"):
        verify_disconnecting_set(g, ((2, 2),))
    with pytest.raises(ValueError, match=r"edge \(5, 6\) not in graph"):
        verify_disconnecting_set(g, ((5, 6),))
    # a malformed witness raises ValueError naming the bad item
    with pytest.raises(ValueError, match="witness mixes vertices and edges at 3"):
        verify_disconnecting_set(g, [(0, 1), 3])
    with pytest.raises(ValueError, match=r"mixes vertices and edges at \(0, 1\)"):
        verify_disconnecting_set(g, [3, (0, 1)])
    with pytest.raises(ValueError, match="witness item 0.0 is neither"):
        verify_disconnecting_set(g, [0.0, 3.0])
    with pytest.raises(ValueError, match="witness vertex must be an integer, got True"):
        verify_disconnecting_set(g, [True, 3])
    with pytest.raises(ValueError, match=r"edge \(0, 1.0\) end must be an integer"):
        verify_disconnecting_set(g, [(0, 1.0), (3, 4)])
    with pytest.raises(ValueError, match=r"witness item \(0, 1, 2\) is neither"):
        verify_disconnecting_set(g, [(0, 1, 2)])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.05, max_value=0.6),
)
def test_verify_disconnecting_set_agrees_with_networkx(n, seed, p):
    # random vertex and edge subsets, the empty one included, deleted in
    # networkx; an edge named twice or absent raises
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    whole = nx.Graph(g.edges())
    whole.add_nodes_from(range(n))

    def splits(h):
        return nx.number_connected_components(h) >= 2

    assert verify_disconnecting_set(g, ()) == splits(whole)
    for _ in range(4):
        vertices = [int(v) for v in rng.choice(n, int(rng.integers(n + 1)), False)]
        h = whole.copy()
        h.remove_nodes_from(vertices)
        assert verify_disconnecting_set(g, vertices) == splits(h)
    es = g.edges()
    for _ in range(4):
        size = int(rng.integers(len(es) + 1))
        picked = [es[i] for i in rng.choice(len(es), size, False)]
        h = whole.copy()
        h.remove_edges_from(picked)
        flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in picked]
        assert verify_disconnecting_set(g, flipped) == splits(h)
        if picked:
            with pytest.raises(ValueError, match="not in graph"):
                verify_disconnecting_set(g, picked + [picked[0]])
    absent = [(u, v) for u, v in combinations(range(n), 2) if not g.has_edge(u, v)]
    if absent:
        with pytest.raises(ValueError, match="not in graph"):
            verify_disconnecting_set(g, es + [absent[0]])
