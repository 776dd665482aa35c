import hashlib

import numpy as np
import pytest

from specpairs import (
    FAMILY_TAGS,
    Graph,
    base_circulant_G,
    circulant,
    cospectral,
    cycle_graph,
    edge_connectivity,
    edge_pair,
    empty_graph,
    encode_graph6,
    generate_family,
    line_graph,
    line_graph_family,
    paper_witnesses,
    switch,
    verify_disconnecting_set,
    vertex_connectivity,
    vertex_pair,
)
from specpairs import families
from specpairs.families import (
    SINGLE_INSTANCE_FAMILIES,
    _edge_l_matrix,
    _edge_y_block,
    _m_stack,
)


# -- base circulant -------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_base_circulant_structure(k):
    g, ranges, old_to_new = base_circulant_G(k)
    n = 3 * k - 1
    assert g.n == n
    assert g.is_regular() and g.degree(0) == k
    # triangle-free: no entry of A^2 coincides with an edge
    a = g.adj.astype(int)
    assert not ((a @ a) * a).any()
    # ranges tile [0, n)
    spans = sorted(ranges.values())
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(x[1] == y[0] for x, y in zip(spans, spans[1:]))
    # relabeling is a permutation recreating the original jump structure
    raw = circulant(n, range(k, 2 * k))
    perm = list(old_to_new)
    assert sorted(perm) == list(range(n))
    for u, v in raw.edges():
        assert g.has_edge(perm[u], perm[v])


def test_base_circulant_neighborhood_roles():
    k = 4
    g, ranges, _ = base_circulant_G(k)
    v1_lo, v1_hi = ranges["V1"]
    assert set(g.neighbors(0)) == set(range(v1_lo, v1_hi))
    with pytest.raises(ValueError):
        base_circulant_G(1)


# -- vertex-connectivity family ----------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_vertex_family_shape(k):
    fi = vertex_pair(k)
    assert fi.tag == "vertex" and fi.k == k
    for g in (fi.gamma, fi.gamma_prime):
        assert g.n == 6 * k
        assert g.is_regular() and g.degree(0) == 2 * k
    x_lo, x_hi = fi.named["X"]
    assert not fi.gamma.adj[x_lo:x_hi, x_lo:x_hi].any()  # X independent
    u_lo, u_hi = fi.named["U"]
    u_block = fi.gamma.adj[u_lo:u_hi, u_lo:u_hi]
    assert (u_block == ~np.eye(k + 1, dtype=bool)).all()  # U a clique
    assert fi.plan.classes == (tuple(range(2 * k)),)
    assert fi.gamma_prime == switch(fi.gamma, fi.plan)
    assert fi.gamma != fi.gamma_prime


def test_vertex_family_rejects_small_k():
    with pytest.raises(ValueError):
        vertex_pair(1)


def test_vertex_family_connectivity_split():
    fi = vertex_pair(2)
    assert vertex_connectivity(fi.gamma).value == 4
    assert vertex_connectivity(fi.gamma_prime).value == 3
    assert cospectral(fi.gamma, fi.gamma_prime)


# -- edge-connectivity family --------------------------------------------------------


def test_edge_family_shape(edge6):
    fi = edge6
    assert fi.gamma.n == 52
    for g in (fi.gamma, fi.gamma_prime):
        assert g.is_regular() and g.degree(0) == 13
    # the class halves: X11 a clique, X12 complete minus a cycle
    lo, hi = fi.named["X11"]
    assert (fi.gamma.adj[lo:hi, lo:hi] == ~np.eye(hi - lo, dtype=bool)).all()
    lo, hi = fi.named["X12"]
    expect = ~(cycle_graph(hi - lo).adj | np.eye(hi - lo, dtype=bool))
    assert (fi.gamma.adj[lo:hi, lo:hi] == expect).all()
    # b1 sits in its advertised range as the default circulant
    lo, hi = fi.named["B1"]
    assert (fi.gamma.adj[lo:hi, lo:hi] == circulant(9, [1]).adj).all()


def test_edge_family_parameter_validation():
    for bad in (5, 7, 4, 0):
        with pytest.raises(ValueError, match="even"):
            edge_pair(bad)


def test_edge_family_filler_validation():
    with pytest.raises(ValueError, match="b1 must have 9 vertices"):
        edge_pair(6, b1=empty_graph(8))
    with pytest.raises(ValueError, match="b1 must be 2-regular"):
        edge_pair(6, b1=empty_graph(9))
    with pytest.raises(ValueError, match="b2 must have 7 vertices"):
        edge_pair(6, b2=empty_graph(5))
    with pytest.raises(ValueError, match="b2 must be 0-regular"):
        edge_pair(6, b2=cycle_graph(7))


def test_edge_family_custom_fillers_keep_the_theorem():
    fi = edge_pair(6, b1=cycle_graph(9), b2=empty_graph(7))
    assert fi.gamma.is_regular() and fi.gamma.degree(0) == 13
    assert cospectral(fi.gamma, fi.gamma_prime)
    assert edge_connectivity(fi.gamma).value == 13
    assert edge_connectivity(fi.gamma_prime).value == 12


def test_switched_assembly_matches_switch(edge6):
    # rebuild gamma_prime directly with the swapped coupling stack; the
    # result must agree with applying the switching operation
    k, y_width = 6, 28
    l_mat = _edge_l_matrix(k)
    a1 = l_mat.copy()
    np.fill_diagonal(a1, False)
    stack = _m_stack(k, y_width, switched=True)
    y_block = edge6.gamma.adj[4 * k :, 4 * k :]
    rebuilt = Graph.from_adjacency(
        np.block(
            [
                [a1, l_mat, stack[: 2 * k]],
                [l_mat.T, a1, stack[2 * k :]],
                [stack[: 2 * k].T, stack[2 * k :].T, y_block],
            ]
        )
    )
    assert rebuilt == edge6.gamma_prime


def test_variant4_shape(variant4):
    fi = variant4
    assert fi.gamma.n == 36
    for g in (fi.gamma, fi.gamma_prime):
        assert g.is_regular() and g.degree(0) == 7
    assert fi.expected.kappa_prime_gamma == 7
    assert fi.expected.kappa_prime_gamma_prime == 6
    lo, hi = fi.named["replacement"]
    block = fi.gamma.adj[lo:hi, lo:hi]
    # first three rows: matched into the three triads
    assert block[:3].sum() == 9
    assert (block[3:, 3:].sum(axis=1) == 6).all()


def test_variant4_connectivities(variant4):
    assert edge_connectivity(variant4.gamma).value == 7
    assert edge_connectivity(variant4.gamma_prime).value == 6
    assert vertex_connectivity(variant4.gamma).value == 3
    assert vertex_connectivity(variant4.gamma_prime).value == 3


# sha256 of "<graph6 of gamma>\n<graph6 of gamma_prime>" for every pair the
# paper states; literal, so a change to any construction's bytes shows here
PAPER_PAIR_DIGESTS = {
    ("vertex", 2): "5d95bf92eed0f880d932897238261d152dbf114c9c5136b94fdf347e1546bbd8",
    ("vertex", 3): "9b4bf986cf21f50b0c209e9a4711b9ccb9ae62f053b5b2e88308db3424e6adcb",
    ("vertex", 4): "06e2ad39c4808c8db095bc295342ca381b25d11ddb1c4c5991bcff704fd5ef61",
    ("vertex", 5): "1973421e9f3c9bf7b1f27e5ae5dc1a87f1e682d33b14316c2676e087014262ea",
    ("vertex", 6): "99f21d63e5eb8b314962f159b90b8de58cc61d36155abd0314df5da8ab8ebe9c",
    ("vertex", 7): "f413ab1933c0b1f970efb8086736f255728d1d9bde7140decd4c4563efd733ad",
    ("vertex", 8): "237ff81f6e7c3d2c649c6fce6ed76d4b602317f258d1da62ae6807ab81838f5d",
    ("vertex", 9): "df918fd8c57a066bbcf261335907091397620b12c687d3bec36a2f1f1dcd26ca",
    ("vertex", 10): "70a4a12ef4babda52e43a822e79bbc61a58294e4a0db5c5d842a18af39310e14",
    ("edge", 6): "b094643499d452c16392d5883547045e15b2b652049a4338830448a5af65ae85",
    ("edge", 8): "830242a9e9c5dcd29e2288baee32e2b545adb77c419efefde2e365145adb7785",
    ("edge", 10): "109cbc949fe2c7ade037b68eb4be19ee2f755d6775eaf82ae9db69b5236a488f",
    ("edge", 12): "121d4f5dc2a6b1c5539b07a37407a7831a8b89a5ec5c99854eabe7b974f390da",
    ("edge", 14): "7cdc76d79b2b0a539c800828c9ecac8687d0a03fee69f8a0fccb11eccc64ec1e",
    ("edge-variant4", None): "baca804acafb4cea81d2e558c4396096956231daa9038eb76ade8baf0f3f5b42",
}


@pytest.mark.parametrize("tag,k", list(PAPER_PAIR_DIGESTS))
def test_paper_constructions_are_pinned(tag, k):
    fi = generate_family(tag, k)
    text = encode_graph6(fi.gamma) + "\n" + encode_graph6(fi.gamma_prime)
    assert hashlib.sha256(text.encode()).hexdigest() == PAPER_PAIR_DIGESTS[tag, k]


# -- line-graph derivation -------------------------------------------------------------


def test_line_graph_family_metadata(variant4, line_variant4):
    lf = line_variant4
    assert lf.tag == "line-of-edge-variant4"
    assert lf.gamma.n == variant4.gamma.num_edges == 126
    assert lf.gamma.is_regular() and lf.gamma.degree(0) == 12
    assert lf.plan is None and lf.named == {}
    # equality with the base edge connectivity is only claimed where the
    # base value sits below the degree
    assert lf.expected.kappa_gamma is None
    assert lf.expected.kappa_gamma_prime == 6
    assert lf.gamma == line_graph(variant4.gamma)


def test_line_graph_family_needs_regularity():
    from specpairs.families import ExpectedMetrics, FamilyInstance

    irregular = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    fi = FamilyInstance(
        "adhoc", 0, irregular, irregular, None, {}, ExpectedMetrics(4, 2)
    )
    with pytest.raises(ValueError, match="regular"):
        line_graph_family(fi)


def test_line_graph_family_refuses_a_pair_past_the_ceiling(monkeypatch):
    def never(g):
        raise AssertionError("built a line graph past the ceiling")

    monkeypatch.setattr(families, "line_graph", never)
    with pytest.raises(ValueError) as exc:
        line_graph_family(edge_pair(18))
    message = str(exc.value)
    assert "line-of-edge k=18" in message and "order 4214" in message
    assert "ceiling of order 4000" in message


def test_the_ceiling_admits_its_own_order(monkeypatch, variant4, edge6):
    # variant4's line graphs have order 126 and edge_pair(6)'s order 338
    monkeypatch.setattr(families, "LINE_GRAPH_CEILING", 126)
    assert line_graph_family(variant4).gamma.n == 126
    with pytest.raises(ValueError, match="order 338"):
        line_graph_family(edge6)


# -- dispatch and witnesses --------------------------------------------------------------


def test_generate_family_dispatch(variant4):
    fi = generate_family("vertex", 2)
    assert fi.tag == "vertex" and fi.gamma.n == 12
    assert generate_family("edge-variant4").gamma == variant4.gamma
    assert generate_family("edge-variant4", 4).gamma.n == 36
    lf = generate_family("line-of-vertex", 2)
    assert lf.gamma.n == 24
    with pytest.raises(ValueError, match="unknown family"):
        generate_family("moebius")
    with pytest.raises(ValueError, match="needs k"):
        generate_family("vertex")
    with pytest.raises(ValueError, match="k=4"):
        generate_family("edge-variant4", 6)
    with pytest.raises(ValueError, match="k=4"):
        generate_family("line-of-edge-variant4", 6)
    assert generate_family("line-of-edge-variant4").gamma.n == 126
    # every tag the dispatch accepts is registered, and only those
    assert FAMILY_TAGS == (
        "vertex",
        "edge",
        "edge-variant4",
        "line-of-edge",
        "line-of-vertex",
        "line-of-edge-variant4",
    )
    for tag in FAMILY_TAGS:
        k = None if tag in SINGLE_INSTANCE_FAMILIES else 6
        assert generate_family(tag, k).tag == tag


def test_vertex_family_witness(vertex3):
    w = paper_witnesses(vertex3)
    cut = w["vertex_cut_gamma_prime"]
    assert cut == tuple(range(4))
    assert verify_disconnecting_set(vertex3.gamma_prime, cut)
    assert not verify_disconnecting_set(vertex3.gamma, cut)


def test_edge_family_witnesses(edge6):
    w = paper_witnesses(edge6)
    assert len(w["vertex_cut"]) == 3
    assert verify_disconnecting_set(edge6.gamma, w["vertex_cut"])
    assert verify_disconnecting_set(edge6.gamma_prime, w["vertex_cut"])
    assert len(w["edge_cut_gamma"]) == 14
    assert verify_disconnecting_set(edge6.gamma, w["edge_cut_gamma"])
    assert len(w["edge_cut_gamma_prime"]) == 12
    assert verify_disconnecting_set(edge6.gamma_prime, w["edge_cut_gamma_prime"])


def test_variant4_witnesses(variant4):
    w = paper_witnesses(variant4)
    assert verify_disconnecting_set(variant4.gamma, w["vertex_cut"])
    assert verify_disconnecting_set(variant4.gamma_prime, w["vertex_cut"])
    assert verify_disconnecting_set(variant4.gamma, w["edge_cut_gamma"])
    assert verify_disconnecting_set(
        variant4.gamma_prime, w["edge_cut_gamma_prime"]
    )


def test_line_family_advertises_no_witnesses(line_variant4):
    assert paper_witnesses(line_variant4) == {}
