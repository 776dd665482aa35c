"""The modular charpoly's prime budget and kernel: the row-norm Hadamard
bound, the reduction helper and the pivot swaps, each against the
division-free Berkowitz route."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import generate_family, laplacian_matrix
from specpairs._exactpoly import (
    _coefficient_bound,
    _mod,
    _prime,
    _primes_covering,
    berkowitz_charpoly,
    charpoly,
)


def uniform_bound(mat) -> int:
    """The uniform bound max_m C(n, m) * (max row norm)^m, in Python ints."""
    n = len(mat)
    b2 = max([sum(int(x) ** 2 for x in row) for row in mat] + [1])
    return max(math.isqrt(math.comb(n, m) ** 2 * b2**m) + 1 for m in range(n + 1))


def test_coefficient_bound_is_exact_past_int64():
    # squaring 2^32 in int64 wraps to 0, which would make the budget one prime
    mat = np.array([[2**32, 1], [1, 2**32]], dtype=np.int64)
    want = berkowitz_charpoly(mat)
    assert want == [2**64 - 1, -(2**33), 1]
    assert charpoly(mat) == want
    assert _coefficient_bound(mat) >= 2**64 - 1


def test_coefficient_bound_holds_where_hadamard_is_tight():
    # rows of [[a, a], [-a, a]] are orthogonal, so |det| = 2a^2 is the
    # product of the row norms a*sqrt(2): rounding a norm down, not up,
    # would put the bound below the determinant
    for a in (1, 3, 2**20):
        mat = np.array([[a, a], [-a, a]], dtype=np.int64)
        assert berkowitz_charpoly(mat)[0] == 2 * a * a
        assert 2 * a * a <= _coefficient_bound(mat) <= 2 * a * a + 1


@st.composite
def integer_matrices(draw):
    """Square integer matrices of order 0 to 12: negative entries, no
    symmetry, and a nonzero diagonal except in the rows that are all
    zero."""
    n = draw(st.integers(min_value=0, max_value=12))
    entry = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(2**20), max_value=2**20),
    )
    row = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    for i in range(n):
        if rows[i][i] == 0:
            rows[i][i] = draw(st.sampled_from([-5, -1, 1, 7]))
    if n:
        for i in draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)):
            rows[i] = [0] * n
    return np.array(rows, dtype=np.int64).reshape(n, n)


@settings(max_examples=100, deadline=None)
@given(mat=integer_matrices())
def test_coefficient_bound_is_sound_and_no_looser(mat):
    want = berkowitz_charpoly(mat)
    bound = _coefficient_bound(mat)
    assert bound >= max(abs(c) for c in want)
    assert bound <= uniform_bound(mat.tolist())
    assert charpoly(mat) == want


PAPER_FAMILIES = (
    [("vertex", k) for k in range(2, 11)]
    + [("edge", k) for k in range(6, 15, 2)]
    + [("edge-variant4", None), ("line-of-edge-variant4", None)]
    + [("line-of-vertex", 3), ("line-of-edge", 6)]
)


@pytest.mark.parametrize("tag,k", PAPER_FAMILIES)
def test_paper_families_take_as_many_primes_as_before(tag, k):
    # their graphs are regular, so every row has the same norm and the
    # row-norm bound meets the uniform one
    g = generate_family(tag, k).gamma
    for mat in (g.adj.astype(np.int64), laplacian_matrix(g)):
        old = _primes_covering(2 * uniform_bound(mat.tolist()) + 1)
        assert _primes_covering(2 * _coefficient_bound(mat) + 1) == old


@pytest.mark.parametrize("seed", range(12))
def test_pivot_swaps_agree_with_berkowitz(seed):
    # entries that are multiples of the first prime vanish modulo it, so
    # its Hessenberg reduction finds H[j+1, j] = 0 and swaps in a pivot
    # from further down; step 0 always does, since A[1, 0] = -p or p
    p = _prime(0)
    rng = np.random.default_rng(seed)
    n = 3 + seed % 10
    mat = rng.choice([-2 * p, -p, p, 2 * p, 0, 0, 1, -1, 3], size=(n, n))
    mat[1, 0] = p if seed % 2 else -p
    mat[2, 0] = 1 + seed
    assert _mod(mat, p)[1, 0] == 0
    assert charpoly(mat) == berkowitz_charpoly(mat)


def test_mod_equals_numpy_remainder():
    p = _prime(0)
    values = [2**62, -(2**62), 0, p, -p, p - 1, 1 - p, -1, 2**63 - 1, -(2**63)]
    x = np.array(values, dtype=np.int64)
    assert np.array_equal(_mod(x, p), x % p)
    for v in values[:-2]:  # scalars, away from the int64 ends
        assert int(_mod(np.int64(v), p)) == int(np.int64(v) % p) == v % p
