from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
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
    disjoint_union,
    empty_graph,
    laplacian_matrix,
    line_graph,
    path_graph,
    second_smallest_laplacian_eigenvalue,
    spectrum_symmetric,
    two_coloring,
    zero_root_multiplicity,
)
from specpairs._exactpoly import _dot_mod, _prime
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
    import hashlib

    p = IntPolynomial((0, 1))
    assert p.digest() == hashlib.sha256(b"0,1").hexdigest()
    assert IntPolynomial((0, 1)).digest() == p.digest()


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
