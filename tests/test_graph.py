import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
    Graph,
    Graph6Error,
    circulant,
    complete_bipartite,
    complete_graph,
    components,
    cycle_graph,
    decode_graph6,
    delete_edges,
    delete_vertices,
    disjoint_union,
    empty_graph,
    encode_graph6,
    line_graph,
    path_graph,
    two_coloring,
)
from specpairs.graph import _bitrows, _levels
from tests.conftest import random_graph


# -- construction and invariants ----------------------------------------------


def test_adjacency_is_validated():
    with pytest.raises(ValueError):
        Graph(2, np.array([[0, 1], [0, 0]], dtype=bool))  # not symmetric
    with pytest.raises(ValueError):
        Graph(2, np.array([[1, 1], [1, 0]], dtype=bool))  # loop
    with pytest.raises(ValueError):
        Graph(3, np.zeros((2, 3), dtype=bool))  # not square
    with pytest.raises(ValueError):
        Graph(3, np.zeros((2, 2), dtype=bool))  # n mismatch
    # the order is an integer, never a float, bool or string
    with pytest.raises(ValueError, match="n must be an integer, got 2.0"):
        Graph(2.0, np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="n must be an integer, got True"):
        Graph(True, np.zeros((1, 1), dtype=bool))
    with pytest.raises(ValueError, match="n must be an integer, got '2'"):
        Graph("2", np.zeros((2, 2), dtype=bool))
    # a numpy integer order is stored as an int, so the traversals take it
    g = Graph(np.int64(70), cycle_graph(70).adj)
    assert type(g.n) is int and g == cycle_graph(70)
    assert components(g).count == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: empty_graph(2.0),
        lambda: complete_graph(3.0),
        lambda: cycle_graph(5.0),
        lambda: path_graph(3.0),
        lambda: complete_bipartite(2.0, 1),
        lambda: complete_bipartite(2, True),
        lambda: circulant(7.0, [1]),
        lambda: circulant(7, [1.0]),
        lambda: Graph.from_edges(3.0, [(0, 1)]),
        lambda: Graph.from_edges(3, [(0, 1.0)]),
        lambda: Graph.from_edges(3, [(True, 2)]),
        lambda: delete_edges(cycle_graph(5), [(0, 1.0)]),
        lambda: delete_vertices(cycle_graph(5), [1.5]),
        lambda: delete_vertices(cycle_graph(5), [True]),
        lambda: delete_vertices(cycle_graph(5), ["1"]),
    ],
)
def test_orders_and_vertices_must_be_integers(build):
    # a float, bool or string is refused, never truncated to an int
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_numpy_integer_orders_and_vertices_are_taken():
    g = Graph.from_edges(np.int64(5), [(np.int64(i), np.int32((i + 1) % 5)) for i in range(5)])
    assert g == cycle_graph(5) == circulant(np.int64(5), [np.int64(1)])
    sub, mapping = delete_vertices(g, [np.int64(1)])
    assert sub == Graph.from_edges(4, [(0, 3), (1, 2), (2, 3)])
    assert mapping == {0: 0, 2: 1, 3: 2, 4: 3}
    assert delete_edges(g, [(np.int64(4), np.int64(0))]) == path_graph(5)


def test_adjacency_entries_must_be_zero_or_one():
    with pytest.raises(ValueError, match=r"entry 2 at \(0, 1\) is not 0 or 1"):
        Graph.from_adjacency([[0, 2], [2, 0]])
    with pytest.raises(ValueError, match=r"entry -1 at \(0, 1\)"):
        Graph(2, [[0, -1], [-1, 0]])
    with pytest.raises(ValueError, match=r"entry 0.5 at \(0, 1\)"):
        Graph(2, [[0, 0.5], [0.5, 0]])
    # 0/1 in any dtype is accepted
    assert Graph.from_adjacency([[0, 1.0], [1.0, 0]]) == Graph.from_edges(2, [(0, 1)])


def test_adjacency_is_copied_and_frozen():
    a = np.zeros((2, 2), dtype=bool)
    g = Graph(2, a)
    a[0, 1] = a[1, 0] = True
    assert g.num_edges == 0
    with pytest.raises(ValueError):
        g.adj[0, 1] = True
    # the packed rows are an immutable tuple, packed once and then kept
    line = line_graph(complete_graph(5))
    for h in (g, empty_graph(0), complete_graph(70), line, line.base):
        rows = h.rows
        assert isinstance(rows, tuple) and rows == _bitrows(h.adj)
        assert h.rows is rows


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.num_edges == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.neighbors(1) == [0, 2]
    assert g.degree(0) == 1 and g.degree(1) == 2
    assert g.min_degree() == 1
    assert not g.is_regular()
    assert g.has_edge(2, 1) and not g.has_edge(0, 3)


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises((ValueError, IndexError)):
        Graph.from_edges(3, [(0, 5)])


def test_equality_and_hash():
    g = cycle_graph(5)
    h = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert g == h
    assert hash(g) == hash(h)
    assert g != path_graph(5)
    # reading the packed rows changes neither equality nor the hash
    before = hash(g)
    assert g.rows == h.rows
    assert g == h and hash(g) == before == hash(h)
    assert g != path_graph(5)


def test_named_graphs():
    assert complete_graph(5).num_edges == 10
    assert empty_graph(4).num_edges == 0
    assert cycle_graph(6).degrees().tolist() == [2] * 6
    assert path_graph(4).num_edges == 3
    kab = complete_bipartite(2, 3)
    assert kab.num_edges == 6
    assert sorted(kab.degrees().tolist()) == [2, 2, 2, 3, 3]


def test_circulant():
    g = circulant(7, [1, 2])
    assert g.is_regular() and g.degree(0) == 4
    assert g.has_edge(0, 1) and g.has_edge(0, 5)  # -2 mod 7
    assert circulant(6, [2, 4]) == circulant(6, [2])  # jumps reduce mod n
    with pytest.raises(ValueError):
        circulant(5, [0])
    with pytest.raises(ValueError):
        circulant(4, [4])  # reduces to 0


def test_cycle_graph_small_sizes():
    with pytest.raises(ValueError):
        cycle_graph(2)
    assert cycle_graph(3) == complete_graph(3)


# -- derived graphs ---------------------------------------------------------------


def test_line_graph_known():
    assert line_graph(complete_graph(3)) == complete_graph(3)
    assert line_graph(path_graph(4)) == path_graph(3)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert line_graph(star) == complete_graph(3)
    lk4 = line_graph(complete_graph(4))
    assert lk4.n == 6 and lk4.is_regular() and lk4.degree(0) == 4
    assert star.base is None and line_graph(star).base is star


def test_line_graph_empty_edge_set():
    assert line_graph(empty_graph(3)).n == 0


def test_delete_vertices():
    g = cycle_graph(5)
    h, mapping = delete_vertices(g, [1, 3])
    assert h.n == 3
    assert mapping == {0: 0, 2: 1, 4: 2}
    assert h.edges() == [(0, 2)]  # old edge (0, 4) under the mapping
    with pytest.raises(ValueError):
        delete_vertices(g, [7])
    # duplicates are set semantics, not an error
    assert delete_vertices(g, [1, 1])[0].n == 4


def test_delete_edges():
    g = cycle_graph(4)
    h = delete_edges(g, [(0, 1), (3, 2)])
    assert h.num_edges == 2
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        delete_edges(g, [(0, 2)])


def test_disjoint_union_and_components():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    assert g.n == 5 and g.num_edges == 4
    part = components(g)
    assert part.count == 2
    assert part.labels == (0, 0, 0, 1, 1)
    assert components(empty_graph(0)).count == 0
    assert components(empty_graph(3)).count == 3


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.0, max_value=0.2),
)
def test_components_agree_with_networkx(n, seed, p):
    # sparse samples leave many components, numbered by their least vertex
    nx = pytest.importorskip("networkx")
    g = random_graph(np.random.default_rng(seed), n, p)
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(n))
    blocks = sorted(nx.connected_components(h), key=min)
    part = components(g)
    assert part.count == len(blocks)
    assert part.labels == tuple(
        next(i for i, b in enumerate(blocks) if v in b) for v in range(n)
    )


def test_two_coloring():
    assert two_coloring(cycle_graph(5)) is None
    col = two_coloring(cycle_graph(6))
    assert col is not None
    for u, v in cycle_graph(6).edges():
        assert col[u] != col[v]
    col = two_coloring(complete_bipartite(2, 4))
    assert col is not None and sorted(col) == [0] * 4 + [1] * 2 or sorted(
        col
    ) == [0] * 2 + [1] * 4
    # bipartite check is per component
    assert two_coloring(disjoint_union(path_graph(2), cycle_graph(4))) is not None
    assert two_coloring(disjoint_union(path_graph(2), cycle_graph(3))) is None


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.0, max_value=0.3),
    bipartite=st.booleans(),
)
def test_two_coloring_agrees_with_networkx(n, seed, p, bipartite):
    # half the samples keep only the edges across a random bipartition,
    # so both answers occur; sparse samples leave many components
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    if bipartite:
        side = rng.random(n) < 0.5
        g = Graph(n, g.adj & (side[:, None] != side[None, :]))
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(n))
    col = two_coloring(g)
    assert (col is None) == (not nx.is_bipartite(h))
    if col is not None:
        assert len(col) == n and set(col) <= {0, 1}
        assert all(col[u] != col[v] for u, v in g.edges())
        assert all(col[min(b)] == 0 for b in nx.connected_components(h))


def _mask(vertices):
    return sum(1 << v for v in set(vertices))


def test_levels_small_cases():
    rows = path_graph(5).rows  # 0-1-2-3-4
    assert _levels(rows, 0b1) == [0b1, 0b10, 0b100, 0b1000, 0b10000]
    assert _levels(rows, 0b100) == [0b100, 0b1010, 0b10001]
    # vertex 2 is not alive, so the search from 0 ends at 1
    assert _levels(rows, 0b1, alive=0b11011) == [0b1, 0b10]
    # the level that meets stop is the last one
    assert _levels(rows, 0b1, stop=0b11000) == [0b1, 0b10, 0b100, 0b1000]
    assert _levels(rows, 0b1, stop=0b1) == [0b1]
    assert _levels(rows, 0) == []


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.0, max_value=0.3),
)
def test_levels_are_the_breadth_first_layers_inside_alive(n, seed, p):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, p)
    alive = {v for v in range(n) if rng.random() < 0.8}
    seed_set = {v for v in alive if rng.random() < 0.1} | {int(rng.integers(n))}
    alive |= seed_set
    stop = {v for v in range(n) if rng.random() < 0.05}
    rows = g.rows
    levels = _levels(rows, _mask(seed_set), _mask(alive), _mask(stop))

    whole = nx.Graph(g.edges())
    whole.add_nodes_from(range(n))
    h = whole.subgraph(alive)
    dist = nx.multi_source_dijkstra_path_length(h, seed_set)
    layers = [
        _mask(v for v, d in dist.items() if d == i)
        for i in range(max(dist.values()) + 1)
    ]
    meets = [i for i, layer in enumerate(layers) if layer & _mask(stop)]
    assert levels == (layers[: meets[0] + 1] if meets else layers)

    # the levels are nonempty and disjoint
    union = 0
    for level in levels:
        assert level and not level & union
        union |= level
    # they stop at the first level that meets stop, else fill the component
    assert all(not level & _mask(stop) for level in levels[:-1])
    if not meets:
        assert union == _mask(set().union(
            *(nx.node_connected_component(h, v) for v in seed_set)
        ))
    # alive defaults to every vertex
    assert sum(_levels(rows, _mask(seed_set))) == _mask(set().union(
        *(nx.node_connected_component(whole, v) for v in seed_set)
    ))


# -- graph6 -----------------------------------------------------------------------


def test_graph6_known_values():
    assert encode_graph6(complete_graph(3)) == "Bw"
    assert encode_graph6(complete_graph(2)) == "A_"
    assert encode_graph6(path_graph(3)) == "Bg"
    assert encode_graph6(empty_graph(1)) == "@"
    assert encode_graph6(empty_graph(0)) == "?"
    assert decode_graph6("Bw") == complete_graph(3)
    assert decode_graph6("A_") == complete_graph(2)
    assert decode_graph6("@") == empty_graph(1)
    assert decode_graph6("?") == empty_graph(0)


def test_graph6_long_header():
    g = random_graph(np.random.default_rng(7), 80, 0.3)
    text = encode_graph6(g)
    assert text.startswith("~") and not text.startswith("~~")
    assert decode_graph6(text) == g


def test_graph6_decode_errors_carry_offsets():
    with pytest.raises(Graph6Error) as exc:
        decode_graph6("B")
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error, match="trailing"):
        decode_graph6("Bww")
    with pytest.raises(Graph6Error, match="padding"):
        decode_graph6("Aw")  # n=2 needs one bit; the rest must be zero
    with pytest.raises(Graph6Error) as exc:
        decode_graph6("B" + chr(30))
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error):
        decode_graph6("")
    with pytest.raises(Graph6Error):
        decode_graph6("~")  # truncated long header


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.0, max_value=1.0),
)
def test_graph6_round_trip(n, seed, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    assert decode_graph6(encode_graph6(g)) == g


def _reference_encode(g):
    """graph6 text written bit by bit from the format's description."""
    n = g.n
    if n <= 62:
        head = [n]
    else:
        head = [63] + [n >> s & 63 for s in (12, 6, 0)]
    bits = [int(g.adj[u, v]) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [
        sum(b << (5 - j) for j, b in enumerate(bits[i : i + 6]))
        for i in range(0, len(bits), 6)
    ]
    return "".join(chr(63 + x) for x in head + body)


def _reference_decode(text):
    codes = [ord(c) - 63 for c in text]
    if codes[0] == 63:
        n = (codes[1] << 12) | (codes[2] << 6) | codes[3]
        codes = codes[4:]
    else:
        n, codes = codes[0], codes[1:]
    bits = [c >> (5 - j) & 1 for c in codes for j in range(6)]
    adj = np.zeros((n, n), dtype=bool)
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    for (u, v), b in zip(pairs, bits):
        adj[u, v] = adj[v, u] = bool(b)
    return Graph(n, adj)


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 200])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_graph6_codec_matches_a_bit_by_bit_reference(n, p):
    g = random_graph(np.random.default_rng(n), n, p)
    text = encode_graph6(g)
    assert text == _reference_encode(g)
    assert decode_graph6(text) == g == _reference_decode(text)


# (text, message, offset) for malformed lines
_MALFORMED = [
    ("", "empty graph6 text", 0),
    (">>graph6<<", "empty graph6 text", 0),
    ("~", "truncated 18-bit order", 1),
    ("~??", "truncated 18-bit order", 3),
    ("~~??", "truncated 36-bit order", 4),
    ("~!??", "character '!' outside graph6 range", 1),
    ("~??~", "truncated adjacency bits", 4),
    (">>graph6<<B", "truncated adjacency bits", 1),
    ("C!!", "character '!' outside graph6 range", 1),
    ("Bé", "character 'é' outside graph6 range", 1),
    ("B\x7f", "character '\\x7f' outside graph6 range", 1),
    ("B\ud800", "character '\\ud800' outside graph6 range", 1),
    ("C~!", "trailing characters after adjacency bits", 2),
    ("D~~~~", "trailing characters after adjacency bits", 3),
    ("??", "trailing characters after adjacency bits", 1),
    ("Ao", "nonzero padding in final character", 1),
    ("E~~@", "nonzero padding in final character", 3),
]


@pytest.mark.parametrize("text,message,offset", _MALFORMED)
def test_graph6_errors_keep_their_messages_and_offsets(text, message, offset):
    with pytest.raises(Graph6Error) as exc:
        decode_graph6(text)
    assert (exc.value.message, exc.value.offset) == (message, offset)
