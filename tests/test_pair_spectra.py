"""The identity routes of ``pair_char_polys``, each cross-checked against
the direct modular charpoly, plus the chunked CRT path past 511 terms."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specpairs import (
    FamilyInstance,
    Graph,
    IntPolynomial,
    SwitchingPlan,
    berkowitz_char_poly,
    char_poly_adjacency,
    char_poly_laplacian,
    circulant,
    cycle_graph,
    edge_pair,
    empty_graph,
    edge_pair_variant4,
    laplacian_matrix,
    line_graph,
    line_graph_family,
    pair_char_polys,
    path_graph,
    similarity_certificate,
    switch,
    validate_plan,
    vertex_pair,
)
from specpairs import _exactpoly, spectra
from specpairs.cli import _verify_report
from tests.conftest import random_graph


def direct(matrix):
    """The modular charpoly of an integer matrix, with no identity."""
    return IntPolynomial(_exactpoly.charpoly(np.asarray(matrix, dtype=np.int64)))


def assert_direct(g, adjacency, laplacian):
    assert adjacency == direct(g.adj)
    assert laplacian == direct(laplacian_matrix(g))


FAMILY_PAIRS = (
    [("vertex", k) for k in range(2, 11)]
    + [("edge", k) for k in range(6, 15, 2)]
    + [("edge-variant4", 4)]
)


def build(tag, k):
    if tag == "vertex":
        return vertex_pair(k)
    if tag == "edge":
        return edge_pair(k)
    return edge_pair_variant4()


# -- (a) regular Laplacian identity ----------------------------------------------


@pytest.mark.parametrize(
    "fi", [vertex_pair(k) for k in range(2, 6)] + [edge_pair(6)],
    ids=["vertex2", "vertex3", "vertex4", "vertex5", "edge6"],
)
def test_regular_laplacian_identity(fi):
    for g in (fi.gamma, fi.gamma_prime):
        assert g.is_regular()
        assert char_poly_laplacian(g) == direct(laplacian_matrix(g))


# -- (b) similarity certificate ---------------------------------------------------


@pytest.mark.parametrize("tag,k", FAMILY_PAIRS)
def test_certificate_proves_every_family_pair(tag, k):
    fi = build(tag, k)
    proven = similarity_certificate(fi.gamma, fi.gamma_prime, fi.plan)
    assert proven == {"adjacency", "laplacian"}
    ps = pair_char_polys(fi)
    assert ps.route == {"adjacency": "similarity", "laplacian": "identity"}
    assert_direct(fi.gamma, ps.adjacency[0], ps.laplacian[0])
    assert_direct(fi.gamma_prime, ps.adjacency[1], ps.laplacian[1])


def test_certificate_carries_the_laplacian_of_an_irregular_pair():
    # a class of two is always admissible; the switch swaps the two
    # vertices, so the pair is isomorphic, irregular, and similar
    g = random_graph(np.random.default_rng(5), 14, 0.4)
    assert not g.is_regular()
    plan = SwitchingPlan(14, [[0, 1]])
    h = switch(g, plan)
    fi = FamilyInstance("irregular", 0, g, h, plan, {}, None)
    ps = pair_char_polys(fi)
    assert ps.route == {"adjacency": "similarity", "laplacian": "similarity"}
    assert_direct(h, ps.adjacency[1], ps.laplacian[1])


def test_certificate_proves_each_matrix_on_its_own():
    # y1=4 and y2=5 see half of the class {0..3}: switching moves their
    # edges from 0, 1 to 2, 3 and changes those degrees, so Q carries the
    # adjacency matrix over but not the Laplacian
    edges = [(4, 0), (4, 1), (5, 0), (5, 1), (6, 0), (6, 1), (6, 2), (6, 3),
             (7, 4), (7, 5), (7, 6)]
    g = Graph.from_edges(8, edges)
    plan = SwitchingPlan(8, [range(4)])
    h = switch(g, plan)
    assert similarity_certificate(g, h, plan) == {"adjacency"}
    ps = pair_char_polys(FamilyInstance("irregular", 0, g, h, plan, {}, None))
    assert ps.route == {"adjacency": "similarity", "laplacian": "charpoly"}
    assert_direct(h, ps.adjacency[1], ps.laplacian[1])


def tampered_vertex3():
    fi = vertex_pair(3)
    adj = fi.gamma_prime.adj.copy()
    adj[0, 17] = adj[17, 0] = not adj[0, 17]
    return FamilyInstance(
        fi.tag, fi.k, fi.gamma, Graph(fi.gamma.n, adj), fi.plan, fi.named,
        fi.expected,
    )


def test_tampered_pair_is_rejected_and_reported_different():
    fi = tampered_vertex3()
    assert not similarity_certificate(fi.gamma, fi.gamma_prime, fi.plan)
    report = _verify_report(fi, ("cospectral",), None)
    check = report["checks"][0]
    assert report["verdict"] == "FAIL" and check["status"] == "FAIL"
    assert check["route"] == {"adjacency": "charpoly", "laplacian": "charpoly"}
    assert check["computed"]["adjacency"] is False


def test_certificate_needs_matching_orders(vertex3):
    plan = SwitchingPlan(vertex3.gamma.n + 1, [range(6)])
    assert not similarity_certificate(vertex3.gamma, vertex3.gamma_prime, plan)


def fraction_switching_matrix(plan):
    """Q = (2/|C|)J - I on each class C and I elsewhere, as Fractions."""
    q = np.array(
        [[Fraction(int(i == j)) for j in range(plan.n)] for i in range(plan.n)],
        dtype=object,
    )
    for cls in plan.classes:
        for i in cls:
            for j in cls:
                q[i, j] = Fraction(2, len(cls)) - (i == j)
    return q


def integer_matrices(g):
    a = g.adj.astype(int).astype(object)
    return {"adjacency": a, "laplacian": np.diag(a.sum(axis=1)) - a}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_certificate_agrees_with_a_fraction_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=14), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g = random_graph(rng, n, rng.random())
    order = data.draw(st.permutations(range(n)), label="order")
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="sizes")
    classes, at = [], 0
    for m in sizes:
        m = min(m, n - at)
        if m:
            classes.append(order[at:at + m])
            at += m
    plan = SwitchingPlan(n, classes)
    switched = switch(g, plan) if validate_plan(g, plan).valid else g
    u, v = data.draw(st.permutations(range(n)), label="flip")[:2]
    adj = switched.adj.copy()
    adj[u, v] = adj[v, u] = not adj[u, v]
    q = fraction_switching_matrix(plan)
    xs = integer_matrices(g)
    for h in (switched, Graph(n, adj)):
        ys = integer_matrices(h)
        similar = {name for name in xs if (q @ xs[name] @ q == ys[name]).all()}
        assert similarity_certificate(g, h, plan) == similar


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_degrees_commute_agrees_with_a_fraction_oracle(data):
    # degrees from {0, 1, 2}, the second vector often a copy or a permutation
    # of the first, so that both answers come up on classes of every size
    n = data.draw(st.integers(min_value=1, max_value=9), label="n")
    d = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    d2 = data.draw(
        st.sampled_from(["copy", "permutation", "free"]), label="second"
    )
    if d2 == "copy":
        d2 = d.copy()
    elif d2 == "permutation":
        d2 = d[data.draw(st.permutations(range(n)))]
    else:
        d2 = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    order = data.draw(st.permutations(range(n)), label="order")
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="sizes")
    classes, at = [], 0
    for m in sizes:
        m = min(m, n - at)
        if m:
            classes.append(order[at:at + m])
            at += m
    plan = SwitchingPlan(n, classes)
    q = fraction_switching_matrix(plan)
    want = bool((np.diag(d.astype(object)) @ q == q @ np.diag(d2.astype(object))).all())
    assert spectra._degrees_commute(d, d2, plan) == want


def test_certificate_builds_laplacians_only_where_the_adjacency_fails(monkeypatch):
    built = []
    real = spectra.laplacian_matrix

    def recording(g):
        built.append(g.n)
        return real(g)

    monkeypatch.setattr(spectra, "laplacian_matrix", recording)
    # a regular family pair, and an irregular pair whose switch swaps two
    # vertices: both matrices proven, from the adjacency and the degrees
    fi = edge_pair(6)
    assert similarity_certificate(fi.gamma, fi.gamma_prime, fi.plan) == {
        "adjacency", "laplacian"
    }
    assert pair_char_polys(fi).route == {"adjacency": "similarity", "laplacian": "identity"}
    g = random_graph(np.random.default_rng(5), 14, 0.4)
    plan = SwitchingPlan(14, [[0, 1]])
    assert similarity_certificate(g, switch(g, plan), plan) == {"adjacency", "laplacian"}
    assert built == []
    # the tampered pair fails on its adjacency, so its Laplacians are checked
    fi = tampered_vertex3()
    assert not similarity_certificate(fi.gamma, fi.gamma_prime, fi.plan)
    assert built == [fi.gamma.n, fi.gamma.n]


def prime_classes_plan():
    """An admissible plan on the empty graph of order 379 = 3 + 5 + ... + 53
    whose classes have the odd primes up to 53 as sizes, so that no l below
    2^63 makes l Q integral: the least, their product, is about 1.6e19."""
    sizes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    starts = np.cumsum([0] + sizes)
    n = int(starts[-1])
    return n, SwitchingPlan(n, [range(a, a + m) for a, m in zip(starts, sizes)])


def test_certificate_proves_classes_of_coprime_sizes():
    n, plan = prime_classes_plan()
    g = empty_graph(n)
    assert similarity_certificate(g, switch(g, plan), plan) == {
        "adjacency", "laplacian"
    }


# -- (c) Sachs' identity for line-graph pairs -----------------------------------------


@pytest.mark.parametrize(
    "base", [edge_pair_variant4(), vertex_pair(3)], ids=["variant4", "vertex3"]
)
def test_sachs_identity_gives_line_graph_pairs(base):
    lf = line_graph_family(base)
    assert lf.base is base
    ps = pair_char_polys(lf)
    assert ps.route == {"adjacency": "identity", "laplacian": "identity"}
    assert_direct(lf.gamma, ps.adjacency[0], ps.laplacian[0])
    assert_direct(lf.gamma_prime, ps.adjacency[1], ps.laplacian[1])


def test_sachs_identity_needs_the_matching_base(vertex3):
    # a base whose edge count is not the line graph's order is ignored
    lf = line_graph_family(vertex3)
    wrong = FamilyInstance(
        lf.tag, lf.k, lf.gamma, lf.gamma_prime, None, {}, lf.expected,
        base=vertex_pair(2),
    )
    ps = pair_char_polys(wrong)
    assert ps.route["adjacency"] == "charpoly"
    assert ps.adjacency == pair_char_polys(lf).adjacency


def test_tampered_line_graph_pair_is_reported_different(vertex3):
    # one edge flip keeps the order equal to the base's edge count, so
    # only comparing with the base's line graph catches it
    lf = line_graph_family(vertex3)
    adj = lf.gamma_prime.adj.copy()
    adj[0, 40] = adj[40, 0] = not adj[0, 40]
    tampered = FamilyInstance(
        lf.tag, lf.k, lf.gamma, Graph(lf.gamma.n, adj), None, lf.named,
        lf.expected, base=lf.base,
    )
    ps = pair_char_polys(tampered)
    assert ps.route["adjacency"] == "charpoly"
    assert ps.adjacency[1] == direct(adj)
    report = _verify_report(tampered, ("cospectral",), None)
    check = report["checks"][0]
    assert report["verdict"] == "FAIL" and check["status"] == "FAIL"
    assert check["route"]["adjacency"] == "charpoly"
    assert check["computed"]["adjacency"] is False


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_line_graph_laplacian_identity_equals_berkowitz(data):
    # det(xI - L_L(G)) = (x - 2d)^(m - n) det(xI - L_G) for d-regular G, d >= 2
    n = data.draw(st.integers(min_value=3, max_value=12), label="n")
    jumps = data.draw(
        st.lists(st.integers(1, n // 2), min_size=1, max_size=3, unique=True),
        label="jumps",
    )
    g = circulant(n, jumps)
    d = int(g.degrees()[0])
    assume(d >= 2)
    mu = berkowitz_char_poly(laplacian_matrix(g))
    got = spectra._line_graph_laplacian(mu, d, g.num_edges - n)
    assert got == berkowitz_char_poly(laplacian_matrix(line_graph(g)))


def test_line_of_edge_6_laplacians_take_no_shift_at_the_line_order(monkeypatch, edge6):
    lf = line_graph_family(edge6)
    ps = pair_char_polys(lf)
    lengths = []
    real = _exactpoly.taylor_shift

    def recording(coeffs, a):
        lengths.append(len(coeffs))
        return real(coeffs, a)

    monkeypatch.setattr(_exactpoly, "taylor_shift", recording)
    laplacian = ps.laplacian
    assert lengths and max(lengths) <= 100
    # the regular identity at order 338 gives the same pair
    d = int(lf.gamma.degrees()[0])
    assert laplacian == tuple(spectra._regular_laplacian(p, d) for p in ps.adjacency)


def count_calls(monkeypatch, names):
    """Count calls to each named identity of ``spectra``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(spectra, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(spectra, name, counting)
    return calls


IDENTITIES = ("_line_graph_poly", "_line_graph_laplacian", "_regular_laplacian")


def test_each_identity_runs_once_for_a_cospectral_line_pair(monkeypatch, line_variant4):
    calls = count_calls(monkeypatch, IDENTITIES)
    ps = pair_char_polys(line_variant4)
    ps.laplacian
    assert calls == dict.fromkeys(IDENTITIES, 1)


def test_each_side_runs_its_own_identity_when_the_inputs_differ(monkeypatch):
    # a regular base pair that is not cospectral: C8(1, 2) and K4,4 = C8(1, 3)
    g, h = circulant(8, [1, 2]), circulant(8, [1, 3])
    base = FamilyInstance("toy", 0, g, h, None, {}, None)
    lf = FamilyInstance(
        "line-of-toy", 0, line_graph(g), line_graph(h), None, {}, None, base=base
    )
    calls = count_calls(monkeypatch, IDENTITIES)
    ps = pair_char_polys(lf)
    assert ps.route == {"adjacency": "identity", "laplacian": "identity"}
    assert ps.adjacency[0] != ps.adjacency[1]
    assert ps.laplacian[0] != ps.laplacian[1]
    assert calls == dict.fromkeys(IDENTITIES, 2)
    assert_direct(lf.gamma, ps.adjacency[0], ps.laplacian[0])
    assert_direct(lf.gamma_prime, ps.adjacency[1], ps.laplacian[1])


def test_linegraph_check_proves_the_base_pair_once(monkeypatch):
    calls = []
    real = spectra.similarity_certificate

    def counting(g, h, plan):
        calls.append(g.n)
        return real(g, h, plan)

    monkeypatch.setattr(spectra, "similarity_certificate", counting)
    report = _verify_report(edge_pair_variant4(), ("cospectral", "linegraph"), None)
    assert report["verdict"] == "PASS"
    assert report["checks"][1]["route"] == {"adjacency": "identity"}
    assert calls == [36]


def test_laplacians_are_proven_only_when_read(monkeypatch, vertex3):
    shifts = []
    real = spectra._regular_laplacian

    def counting(p, d):
        shifts.append(d)
        return real(p, d)

    monkeypatch.setattr(spectra, "_regular_laplacian", counting)
    ps = pair_char_polys(line_graph_family(vertex3))
    assert shifts == []
    assert ps.route == {"adjacency": "identity", "laplacian": "identity"}
    first = ps.laplacian
    # the line graphs' Laplacians come from the base pair's, whose sides
    # share one adjacency polynomial and one degree, so one shift in all
    assert shifts == [6]
    assert ps.laplacian is first and shifts == [6]
    # the linegraph check reads only the line graphs' adjacency polynomials
    shifts.clear()
    report = _verify_report(vertex3, ("linegraph",), None)
    assert report["verdict"] == "PASS" and shifts == []


# -- one charpoly per family ------------------------------------------------------


def test_verify_takes_one_charpoly_per_family(monkeypatch):
    calls = []
    real = _exactpoly.charpoly

    def counting(mat, *args, **kwargs):
        calls.append(mat.shape[0])
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(_exactpoly, "charpoly", counting)
    fi = line_graph_family(edge_pair_variant4())
    report = _verify_report(fi, ("cospectral", "kappa", "fiedler"), None)
    assert report["verdict"] == "PASS"
    # the base graph gamma through its twin quotient (order 36 -> 22),
    # nothing at n=126
    assert calls == [22]
    fiedler = report["checks"][2]
    assert fiedler["route"] == {"laplacian": "identity"}


# -- the CRT past 511 terms ------------------------------------------------------


@pytest.mark.slow
def test_charpoly_past_511_terms_is_the_product_of_its_blocks():
    # int64 dot products of more than 511 terms are summed in chunks; the
    # charpoly's longest ones contract n - 2 terms, so n = 530 takes that
    # path.  A permuted disjoint union has the product of its blocks'
    # charpolys
    rng = np.random.default_rng(2019)
    sizes = [53] * 10
    blocks = [
        cycle_graph(s) if i % 2 else path_graph(s) for i, s in enumerate(sizes)
    ]
    n = sum(sizes)
    adj = np.zeros((n, n), dtype=np.int64)
    at = 0
    for b in blocks:
        adj[at : at + b.n, at : at + b.n] = b.adj
        at += b.n
    perm = rng.permutation(n)
    want = [1]
    for b in blocks:
        q = char_poly_adjacency(b).coeffs
        out = [0] * (len(want) + len(q) - 1)
        for i, a in enumerate(want):
            for j, c in enumerate(q):
                out[i + j] += a * c
        want = out
    assert _exactpoly.charpoly(adj[np.ix_(perm, perm)]) == want
