import decimal
import hashlib
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specpairs import (
    Graph,
    IntPolynomial,
    RationalInterval,
    berkowitz_char_poly,
    char_poly_adjacency,
    char_poly_laplacian,
    complete_bipartite,
    complete_graph,
    components,
    cospectral,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    empty_graph,
    generate_family,
    laplacian_matrix,
    line_graph,
    path_graph,
    second_smallest_laplacian_eigenvalue,
    spectrum_symmetric,
    two_coloring,
    zero_root_multiplicity,
)
from specpairs import _exactpoly, spectra
from specpairs._exactpoly import _coefficient_bound, _dot_mod, _prime, _primes_covering
from specpairs.spectra import _times_power, _twin_classes
from tests.conftest import random_graph


# -- IntPolynomial and RationalInterval -----------------------------------------


def test_polynomial_basics():
    p = IntPolynomial((0, -2, 0, 1))  # x^3 - 2x
    assert p.degree == 3
    assert p.evaluate(2) == 4
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 8) - 1
    assert IntPolynomial((5, 0, 0)).degree == 0
    assert p == IntPolynomial([0, -2, 0, 1])
    assert p != IntPolynomial((0, -2, 0, 1, 0))  # content digest differs


def test_polynomial_digest_is_content_addressed():
    p = IntPolynomial((0, 1))
    assert p.digest() == hashlib.sha256(b"0,1").hexdigest()
    assert IntPolynomial((0, 1)).digest() == p.digest()


def test_polynomial_digest_takes_coefficients_past_4300_digits():
    # str(int) refuses more than 4300 digits; the text is built without it
    big = IntPolynomial((10**4999 + 7, -(10**4999), 3))
    text = ["1" + "0" * 4998 + "7", "-1" + "0" * 4999, "3"]
    assert big.decimals() == text
    assert big.digest() == hashlib.sha256(",".join(text).encode()).hexdigest()
    assert IntPolynomial((-12, 0, 1)).decimals() == ["-12", "0", "1"]


def test_polynomial_text_is_made_once_and_handed_out_fresh(monkeypatch):
    p = IntPolynomial((-12, 0, 1))
    made = []
    convert = decimal.Decimal

    def counted(c):
        made.append(c)
        return convert(c)

    monkeypatch.setattr(spectra, "decimal", SimpleNamespace(Decimal=counted))
    digest = p.digest()
    first = p.decimals()
    first.append("junk")
    assert p.decimals() == ["-12", "0", "1"]
    assert p.digest() == digest == hashlib.sha256(b"-12,0,1").hexdigest()
    assert made == [-12, 0, 1]


def test_rational_interval():
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.width == Fraction(1, 6)
    assert iv.midpoint == Fraction(5, 12)
    assert Fraction(2, 5) in iv
    assert 2 not in iv
    with pytest.raises(ValueError):
        RationalInterval(1, 0)


# -- characteristic polynomials --------------------------------------------------


def test_known_adjacency_polynomials():
    assert char_poly_adjacency(complete_graph(2)).coeffs == (-1, 0, 1)
    assert char_poly_adjacency(cycle_graph(4)).coeffs == (0, 0, -4, 0, 1)
    # (x-3)(x+1)^3 = x^4 - 6x^2 - 8x - 3
    assert char_poly_adjacency(complete_graph(4)).coeffs == (-3, -8, -6, 0, 1)
    assert char_poly_adjacency(path_graph(3)).coeffs == (0, -2, 0, 1)
    assert char_poly_adjacency(empty_graph(1)).coeffs == (0, 1)
    assert char_poly_adjacency(empty_graph(0)).coeffs == (1,)


def test_known_laplacian_polynomials():
    # L(K2) has eigenvalues 0 and 2: x^2 - 2x
    assert char_poly_laplacian(complete_graph(2)).coeffs == (0, -2, 1)
    # L(K3): 0, 3, 3: x(x-3)^2 = x^3 - 6x^2 + 9x
    assert char_poly_laplacian(complete_graph(3)).coeffs == (0, 9, -6, 1)


IRREGULAR = {
    # 2m/n = 12/7, rounded to the shift c = 2
    "path 7": path_graph(7),
    # 2m/n = 6/4 = 1.5 exactly, which rounds up to 2
    "path 4": path_graph(4),
    "star K_1,8": complete_bipartite(1, 8),
    "K_2,5": complete_bipartite(2, 5),
    "K_5 and an isolated vertex": disjoint_union(complete_graph(5), empty_graph(1)),
    "one vertex of degree 0 and one edge": disjoint_union(empty_graph(1), complete_graph(2)),
}


@pytest.mark.parametrize("name", IRREGULAR)
def test_irregular_laplacian_is_the_shifted_charpoly_shifted_back(name):
    g = IRREGULAR[name]
    assert not g.is_regular()
    assert char_poly_laplacian(g) == berkowitz_char_poly(laplacian_matrix(g))


def test_irregular_laplacian_takes_fewer_primes(monkeypatch):
    # graphs 11 and 17 of the benchmark's graph6-analyze input at seed 0
    # (n = 182 and 210): L - 3I has trace 70 and 88, where L's own trace
    # 2m = 616 and 718 leaves Parseval's bound nothing to gain
    text = (Path(__file__).parent / "data" / "analyze_seed0_graphs_11_17.g6").read_text()
    graphs = [decode_graph6(line) for line in text.split()]
    before = [len(_primes_covering(2 * _coefficient_bound(laplacian_matrix(g)) + 1)) for g in graphs]
    budgets = []

    def recording(target):
        budgets.append(len(_primes_covering(target)))
        return _primes_covering(target)

    monkeypatch.setattr(_exactpoly, "_primes_covering", recording)
    polys = [char_poly_laplacian(g) for g in graphs]
    assert before == [16, 18]
    assert budgets == [9, 11]
    for g, p in zip(graphs, polys):
        assert p == IntPolynomial(_exactpoly.charpoly(laplacian_matrix(g)))


def test_laplacian_matrix():
    lap = laplacian_matrix(path_graph(3))
    assert lap.tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert lap.dtype == np.int64


def test_berkowitz_known_values():
    # companion matrix of x^3 - 2x - 5
    c = np.array([[0, 0, 5], [1, 0, 2], [0, 1, 0]])
    assert berkowitz_char_poly(c).coeffs == (-5, -2, 0, 1)
    assert berkowitz_char_poly(np.array([[0, 1], [0, 0]])).coeffs == (0, 0, 1)
    assert berkowitz_char_poly(np.array([[7]])).coeffs == (-7, 1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.1, max_value=0.9),
)
def test_modular_and_division_free_routes_agree(n, seed, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    assert char_poly_adjacency(g) == berkowitz_char_poly(g.adj.astype(np.int64))
    assert char_poly_laplacian(g) == berkowitz_char_poly(laplacian_matrix(g))


def test_dot_mod_is_exact_where_int64_dots_overflow():
    p = _prime(0)  # the largest prime the modular route uses
    top = p - 1
    a = np.full(1000, top, dtype=np.int64)
    b = np.full((1000, 3), top, dtype=np.int64)
    exact = 1000 * top * top % p
    # a plain int64 dot of 1000 such products wraps around
    assert int(a @ a) != 1000 * top * top
    assert int(_dot_mod(a, a, p)) == exact
    assert _dot_mod(a, b, p).tolist() == [exact] * 3
    assert _dot_mod(b.T, a, p).tolist() == [exact] * 3


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_adjacency_coefficient_facts(n, seed):
    g = random_graph(np.random.default_rng(seed), n, 0.5)
    p = char_poly_adjacency(g)
    assert len(p.coeffs) == n + 1
    assert p.coeffs[n] == 1  # monic
    assert p.coeffs[n - 1] == 0  # zero trace
    if n >= 2:
        assert p.coeffs[n - 2] == -g.num_edges


def test_cospectral_dispatch():
    g, h = cycle_graph(4), complete_bipartite(1, 3)
    # the classic smallest adjacency-cospectral pair is C4 u K1 vs K1,4
    a = disjoint_union(cycle_graph(4), empty_graph(1))
    b = complete_bipartite(1, 4)
    assert cospectral(a, b)
    assert not cospectral(a, b, matrix="laplacian")
    assert not cospectral(g, h)
    with pytest.raises(ValueError):
        cospectral(g, h, matrix="modularity")


def test_caching_returns_consistent_objects():
    g = cycle_graph(5)
    assert char_poly_adjacency(g) == char_poly_adjacency(cycle_graph(5))


# -- spectral predicates ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.1, max_value=0.7),
)
def test_zero_root_multiplicity_counts_components(n, seed, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    assert zero_root_multiplicity(char_poly_laplacian(g)) == components(g).count


def test_zero_root_multiplicity_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        zero_root_multiplicity(IntPolynomial((0, 0)))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.05, max_value=0.6),
)
def test_spectrum_symmetry_matches_two_colorability(n, seed, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    assert spectrum_symmetric(char_poly_adjacency(g)) == (
        two_coloring(g) is not None
    )


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.booleans(),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_spectrum_symmetry_matches_two_colorability_of_disjoint_unions(blocks):
    # each block is a random bipartite graph, or an odd cycle with random
    # chords; one odd block makes the whole union non-bipartite
    g = empty_graph(0)
    for n, seed, bipartite in blocks:
        rng = np.random.default_rng(seed)
        if bipartite:
            side = rng.random(n) < 0.5
            upper = np.triu(rng.random((n, n)) < 0.5, 1) & (side[:, None] != side)
            block = Graph(n, upper | upper.T)
        else:
            block = random_graph(rng, 2 * n + 1, 0.3)
            ring = cycle_graph(2 * n + 1)
            block = Graph(block.n, block.adj | ring.adj)
        g = disjoint_union(g, block)
    assert spectrum_symmetric(char_poly_adjacency(g)) == (two_coloring(g) is not None)
    assert (two_coloring(g) is not None) == all(b for _, _, b in blocks)


def test_spectrum_symmetric_known():
    assert spectrum_symmetric(char_poly_adjacency(cycle_graph(6)))
    assert not spectrum_symmetric(char_poly_adjacency(cycle_graph(5)))
    assert spectrum_symmetric(char_poly_adjacency(empty_graph(3)))


# -- line graph spectral identity ---------------------------------------------------


@pytest.mark.parametrize(
    "g", [complete_graph(4), cycle_graph(6), complete_bipartite(3, 3)]
)
def test_line_graph_characteristic_polynomial_identity(g):
    # for a d-regular graph on n vertices with m edges:
    # charpoly_L(x) = (x+2)^(m-n) * charpoly_G(x - d + 2)
    d = int(g.degrees()[0])
    n, m = g.n, g.num_edges
    pg = char_poly_adjacency(g)
    pl = char_poly_adjacency(line_graph(g))
    for t in range(-6, 7):
        assert pl.evaluate(t) == (t + 2) ** (m - n) * pg.evaluate(t - d + 2)


# -- certified algebraic connectivity ------------------------------------------------


def test_mu2_exact_small_cases():
    iv = second_smallest_laplacian_eigenvalue(cycle_graph(4))
    assert 2 in iv and iv.width <= Fraction(1, 1 << 20)
    iv = second_smallest_laplacian_eigenvalue(complete_graph(4))
    assert 4 in iv
    iv = second_smallest_laplacian_eigenvalue(complete_graph(2))
    assert 2 in iv
    iv = second_smallest_laplacian_eigenvalue(path_graph(3))
    assert 1 in iv
    iv = second_smallest_laplacian_eigenvalue(complete_bipartite(2, 3))
    assert 2 in iv


def test_mu2_disconnected_is_exactly_zero():
    g = disjoint_union(complete_graph(2), complete_graph(2))
    iv = second_smallest_laplacian_eigenvalue(g)
    assert iv.lo == 0 and iv.hi == 0


def test_mu2_irrational_value_is_bracketed():
    # mu2 of the 4-path is 2 - sqrt(2)
    iv = second_smallest_laplacian_eigenvalue(path_graph(4))
    exact = 2 - np.sqrt(2)
    assert float(iv.lo) <= exact <= float(iv.hi)
    assert iv.width <= Fraction(1, 1 << 20)


def test_mu2_respects_custom_tolerance():
    tol = Fraction(1, 1 << 30)
    iv = second_smallest_laplacian_eigenvalue(cycle_graph(5), tol)
    assert iv.width <= tol
    # mu2(C5) = 2 - 2cos(2pi/5); check the enclosure numerically
    exact = 2 - 2 * np.cos(2 * np.pi / 5)
    assert float(iv.lo) <= exact <= float(iv.hi)


def test_mu2_input_validation():
    with pytest.raises(ValueError):
        second_smallest_laplacian_eigenvalue(empty_graph(1))
    with pytest.raises(ValueError):
        second_smallest_laplacian_eigenvalue(cycle_graph(4), Fraction(0))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    p=st.floats(min_value=0.2, max_value=0.9),
)
def test_mu2_enclosure_contains_float_eigenvalue(n, seed, p):
    g = random_graph(np.random.default_rng(seed), n, p)
    iv = second_smallest_laplacian_eigenvalue(g)
    approx = float(np.linalg.eigvalsh(laplacian_matrix(g).astype(float))[1])
    assert float(iv.lo) - 1e-9 <= approx <= float(iv.hi) + 1e-9


# -- the twin quotient ----------------------------------------------------------------


@pytest.mark.parametrize(
    "tag,k",
    [("vertex", k) for k in range(2, 11)]
    + [("edge", k) for k in range(6, 15, 2)]
    + [("edge-variant4", None), ("line-of-vertex", 3), ("line-of-edge-variant4", None)],
)
def test_quotient_polynomial_equals_the_direct_one_on_paper_families(tag, k):
    fi = generate_family(tag, k)
    for g in (fi.gamma, fi.gamma_prime):
        direct = _exactpoly.charpoly(g.adj.astype(np.int64))
        assert char_poly_adjacency(g).coeffs == tuple(direct)


@st.composite
def planted_twin_graphs(draw):
    """A random graph on r points blown up into planted twin classes (a
    clique or an independent set per point, of 1 to 4 vertices), with
    isolated vertices, K2 components and a K_m added, relabelled at
    random; order 0 to about 24."""
    r = draw(st.integers(min_value=0, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    base = random_graph(rng, r, draw(st.floats(min_value=0.0, max_value=1.0)))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=r, max_size=r))
    cliques = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    point = np.repeat(np.arange(r), sizes)
    adj = base.adj[np.ix_(point, point)]
    same = point[:, None] == point
    clique = np.array(cliques, dtype=bool)[point]
    adj = adj | (same & clique[:, None])
    np.fill_diagonal(adj, False)
    g = Graph(len(point), adj)
    for extra in (
        empty_graph(draw(st.integers(min_value=0, max_value=3))),
        *[complete_graph(2)] * draw(st.integers(min_value=0, max_value=2)),
        complete_graph(draw(st.integers(min_value=0, max_value=4))),
    ):
        g = disjoint_union(g, extra)
    perm = rng.permutation(g.n)
    return Graph(g.n, g.adj[np.ix_(perm, perm)])


def _assert_twin_partition(g):
    classes = _twin_classes(g)
    members = [v for c, _ in classes for v in c]
    assert sorted(members) == list(range(g.n))
    assert [c[0] for c, _ in classes] == sorted(c[0] for c, _ in classes)
    label = np.empty(g.n, dtype=np.intp)
    for i, (c, _) in enumerate(classes):
        label[c] = i
    for c, tau in classes:
        assert c == sorted(c) and tau in (0, 1)
        # a clique for true twins, an independent set otherwise
        assert g.adj[np.ix_(c, c)].sum() == tau * len(c) * (len(c) - 1)
        # equitable: every vertex of c sees each class the same number of times
        seen = [np.bincount(label[g.adj[v]], minlength=len(classes)) for v in c]
        assert all(np.array_equal(x, seen[0]) for x in seen)
    return classes


@settings(max_examples=80, deadline=None)
@given(g=planted_twin_graphs())
def test_quotient_polynomial_equals_berkowitz_on_planted_twins(g):
    assert char_poly_adjacency(g) == berkowitz_char_poly(g.adj)


@settings(max_examples=80, deadline=None)
@given(g=planted_twin_graphs())
def test_twin_classes_are_an_equitable_partition_into_cliques_and_cocliques(g):
    classes = _assert_twin_partition(g)
    closed = g.adj | np.eye(g.n, dtype=bool)
    # a class holds twins of its kind, and no two classes hold twins
    for c, tau in classes:
        rows = closed if tau else g.adj
        assert (rows[c] == rows[c[0]]).all()
    for (c, _), (d, _) in combinations(classes, 2):
        u, v = c[0], d[0]
        assert not np.array_equal(closed[u], closed[v])
        assert not np.array_equal(g.adj[u], g.adj[v])


@pytest.mark.parametrize(
    "g,order",
    [
        (empty_graph(0), 0),
        (empty_graph(5), 1),
        (complete_graph(6), 1),
        (disjoint_union(complete_graph(2), complete_graph(2)), 2),
        (complete_bipartite(3, 4), 2),
        (cycle_graph(5), 5),
    ],
    ids=["empty-0", "empty-5", "K6", "2K2", "K3,4", "C5"],
)
def test_twin_quotient_order_and_polynomial_on_small_graphs(g, order):
    assert len(_assert_twin_partition(g)) == order
    assert char_poly_adjacency(g) == berkowitz_char_poly(g.adj)


def test_quotient_takes_a_symmetrized_budget_only_past_one_twin_pair(monkeypatch):
    calls = []
    real = _exactpoly.charpoly

    def recording(mat, weights=None):
        calls.append((mat.shape[0], weights))
        return real(mat, weights=weights)

    monkeypatch.setattr(_exactpoly, "charpoly", recording)
    # one false twin pair (the ends of P3) lowers the order by one only
    char_poly_adjacency(path_graph(3))
    # K_3,4 has two false twin classes; K6 is one true twin class
    char_poly_adjacency(complete_bipartite(3, 4))
    char_poly_adjacency(complete_graph(6))
    assert calls == [(3, None), (2, [3, 4]), (1, [6])]


def test_quotient_charpolys_take_no_krylov_batch(monkeypatch):
    # the quotients of edge k = 6, 8, 10 and of the variant sit just under
    # the Krylov density cutoff, and every prime's sequence would fall
    # short there; they are not symmetric, which keeps them off the route
    def refuse(mat, primes, N):
        raise AssertionError("a weighted matrix ran the Krylov route")

    calls = []
    real = _exactpoly.charpoly

    def recording(mat, weights=None):
        got = real(mat, weights=weights)
        calls.append((mat, got))
        return got

    monkeypatch.setattr(_exactpoly, "_krylov_sequences", refuse)
    monkeypatch.setattr(_exactpoly, "charpoly", recording)
    for tag, k in [("edge", 6), ("edge", 8), ("edge", 10), ("edge-variant4", None)]:
        char_poly_adjacency(generate_family(tag, k).gamma)
    assert [mat.shape[0] for mat, _ in calls] == [29, 46, 58, 22]
    for mat, got in calls:
        assert got == _exactpoly.berkowitz_charpoly(mat)


def _times_power_one_factor_at_a_time(coeffs, a, k):
    # one linear factor per pass, the reference for the binomial product
    for _ in range(k):
        coeffs = [a * c + b for c, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=12),
    a=st.integers(min_value=-3, max_value=3),
    k=st.integers(min_value=0, max_value=60),
)
@example(coeffs=[1, 0, -4], a=2, k=0)
@example(coeffs=[1, 0, -4], a=0, k=5)
@example(coeffs=[3], a=0, k=0)
def test_times_power_matches_one_factor_at_a_time(coeffs, a, k):
    got = _times_power(coeffs, a, k)
    assert got == _times_power_one_factor_at_a_time(coeffs, a, k)
    assert all(type(c) is int for c in got)


@pytest.mark.parametrize("k", [0, 1, 286, 2772])
@pytest.mark.parametrize("a", [-88, 0, 1, 2])
def test_times_power_recurrence_equals_the_comb_form(a, k):
    # (a, k) = (-88, 2772) is the Laplacian factor (x - 2d)^(m - n) of
    # line-of-vertex k = 22, whose base is 44-regular with 132 vertices
    # and 2904 edges; (2, 286) is Sachs' factor of L(edge_pair(6).gamma)
    comb = [math.comb(k, j) * a ** (k - j) for j in range(k + 1)]
    assert _times_power([1], a, k) == comb


def test_times_power_at_the_sachs_size():
    # L(edge_pair(6).gamma): degree 52 times (x + 2)^286
    p = char_poly_adjacency(generate_family("edge", 6).gamma).coeffs
    assert _times_power(list(p), 2, 286) == _times_power_one_factor_at_a_time(
        list(p), 2, 286
    )
