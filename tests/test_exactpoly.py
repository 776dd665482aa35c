"""The modular charpoly's prime budget and its two residue routes: the
Hadamard and Parseval bounds from the order, the sum of squared entries
and the trace, the Hessenberg pivot swaps, and the
Krylov / Berlekamp-Massey route with its fallback, each against the
division-free Berkowitz route."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpairs import (
    Graph,
    _exactpoly,
    char_poly_adjacency,
    complete_bipartite,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    edge_pair,
    empty_graph,
    generate_family,
    laplacian_matrix,
    path_graph,
    vertex_pair,
)
from specpairs._exactpoly import (
    _berlekamp_massey_mod,
    _coefficient_bound,
    _hessenberg_group,
    _krylov_sequences,
    _prime,
    _primes_covering,
    _residues,
    berkowitz_charpoly,
    charpoly,
)


def uniform_bound(mat) -> int:
    """The uniform bound max_m C(n, m) * (max row norm)^m, in Python ints."""
    n = len(mat)
    b2 = max([sum(int(x) ** 2 for x in row) for row in mat] + [1])
    return max(math.isqrt(math.comb(n, m) ** 2 * b2**m) + 1 for m in range(n + 1))


def hadamard_bound(mat, S=None) -> int:
    """The Hadamard-only bound max_m C(n, m) (S / n)^(m/2), rounded up as
    ``_coefficient_bound`` rounds it, in Python ints."""
    n = len(mat)
    if S is None:
        S = sum(int(x) ** 2 for row in mat for x in row)
    return max(
        math.isqrt(-(-math.comb(n, m) ** 2 * S**m // n**m)) + 1 for m in range(n + 1)
    )


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
    assert bound <= hadamard_bound(mat.tolist()) <= uniform_bound(mat.tolist())
    assert charpoly(mat) == want


@st.composite
def traced_complex_matrices(draw):
    """Non-symmetric integer matrices of order 2 to 12 with a nonzero
    trace and a pair of complex eigenvalues a +- bi, b != 0: the leading
    2 x 2 block is [[a, -b], [b, a]] and nothing below it, so its
    eigenvalues are eigenvalues of the whole."""
    mat = draw(integer_matrices().filter(lambda m: len(m) >= 2))
    a = draw(st.integers(min_value=-(2**10), max_value=2**10))
    b = draw(st.integers(min_value=1, max_value=2**10)) * draw(st.sampled_from([-1, 1]))
    mat[:2, :2] = [[a, -b], [b, a]]
    mat[2:, :2] = 0
    if not np.trace(mat):
        mat[-1, -1] += draw(st.sampled_from([-3, 1, 2]))
    return mat


@settings(max_examples=100, deadline=None)
@given(mat=traced_complex_matrices())
def test_coefficient_bound_holds_with_a_trace_and_complex_eigenvalues(mat):
    want = berkowitz_charpoly(mat)
    assert np.trace(mat) != 0
    bound = _coefficient_bound(mat)
    assert max(abs(c) for c in want) <= bound <= hadamard_bound(mat.tolist())
    assert charpoly(mat) == want


@settings(max_examples=60, deadline=None)
@given(mat=traced_complex_matrices(), e=st.integers(min_value=-4, max_value=4))
def test_parseval_inequality_holds_for_each_coefficient(mat, e):
    # |c_j|^2 r^(2j) n^n <= (n r^2 + 2 r |t| + S)^n at r = 2^e, scaled by
    # 4^(n |e|) so that every term is an integer
    n = len(mat)
    t = abs(int(np.trace(mat)))
    S = sum(int(x) ** 2 for row in mat.tolist() for x in row)
    q = 1 << abs(e)
    inner = n * q * q + 2 * q * t + S if e >= 0 else n + 2 * q * t + S * q * q
    for j, c in enumerate(berkowitz_charpoly(mat)):
        r2j = q ** (2 * j) if e >= 0 else q ** (2 * (n - j))
        assert c * c * r2j * n**n <= inner**n


@st.composite
def weighted_quotients(draw):
    """Q = M diag(w) for a symmetric integer M with a nonzero diagonal and
    positive integer weights w, so that diag(w) Q is symmetric and
    tr Q != 0, as for the twin quotient of a graph with true twins."""
    n = draw(st.integers(min_value=1, max_value=10))
    entry = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    m = np.triu(np.array(rows, dtype=np.int64).reshape(n, n))
    m = m + np.triu(m, 1).T
    m[0, 0] = draw(st.sampled_from([-2, 1, 3]))
    w = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    q = m * np.array(w, dtype=np.int64)[None, :]
    if not np.trace(q):
        q[0, 0] += w[0]  # M[0, 0] + 1, still symmetric
    return q, w


@settings(max_examples=80, deadline=None)
@given(quotient=weighted_quotients())
def test_weighted_bound_holds_on_quotients_with_a_trace(quotient):
    q, w = quotient
    assert np.trace(q) != 0
    S = int((q.astype(object) * q.T.astype(object)).sum())
    want = berkowitz_charpoly(q)
    bound = _coefficient_bound(q, S)
    assert max(abs(c) for c in want) <= bound <= hadamard_bound(q.tolist(), S)
    assert charpoly(q, weights=w) == want


PAPER_FAMILIES = (
    [("vertex", k) for k in range(2, 11)]
    + [("edge", k) for k in range(6, 15, 2)]
    + [("edge-variant4", None), ("line-of-edge-variant4", None)]
    + [("line-of-vertex", 3), ("line-of-edge", 6)]
)


# primes of (A, L) for each family's Gamma: before the trace-aware bound,
# then now
PAPER_FAMILY_PRIMES = {
    ("vertex", 2): ((1, 2), (1, 2)),
    ("vertex", 3): ((2, 2), (1, 2)),
    ("vertex", 4): ((2, 3), (2, 3)),
    ("vertex", 5): ((3, 4), (2, 4)),
    ("vertex", 6): ((3, 5), (3, 5)),
    ("vertex", 7): ((4, 7), (4, 7)),
    ("vertex", 8): ((5, 8), (4, 8)),
    ("vertex", 9): ((5, 9), (5, 9)),
    ("vertex", 10): ((6, 10), (5, 10)),
    ("edge", 6): ((5, 8), (4, 8)),
    ("edge", 8): ((7, 12), (6, 12)),
    ("edge", 10): ((9, 17), (9, 17)),
    ("edge", 12): ((12, 21), (11, 21)),
    ("edge", 14): ((14, 26), (13, 26)),
    ("edge-variant4", None): ((3, 5), (3, 5)),
    ("line-of-edge-variant4", None): ((10, 18), (9, 18)),
    ("line-of-vertex", 3): ((5, 7), (4, 7)),
    ("line-of-edge", 6): ((32, 59), (30, 59)),
}


@pytest.mark.parametrize("tag,k", PAPER_FAMILIES)
def test_paper_families_take_as_many_primes_as_before(tag, k):
    # no more primes than before, and exactly the pinned count.  Their
    # graphs are regular, so every row has the same norm and the row-norm
    # bound meets the uniform one; the trace of A is 0, which the
    # Parseval bound uses, while L's trace nd leaves Hadamard's in place
    before, now = PAPER_FAMILY_PRIMES[(tag, k)]
    g = generate_family(tag, k).gamma
    mats = (g.adj.astype(np.int64), laplacian_matrix(g))
    old = [len(_primes_covering(2 * uniform_bound(m.tolist()) + 1)) for m in mats]
    new = [len(_primes_covering(2 * _coefficient_bound(m) + 1)) for m in mats]
    assert tuple(old) == before
    assert tuple(new) == now
    assert all(a <= b for a, b in zip(new, old))


def test_edge_14_gamma_takes_one_quotient_charpoly_of_10_primes(monkeypatch):
    # the twin quotient has order 82, and its symmetrized budget S' takes
    # 10 primes; the adjacency matrix itself, of order 132, takes 13
    calls, budgets = [], []
    real, covering = _exactpoly.charpoly, _exactpoly._primes_covering

    def counting(mat, *args, **kwargs):
        calls.append(mat.shape[0])
        return real(mat, *args, **kwargs)

    def recording(target):
        budgets.append(len(covering(target)))
        return covering(target)

    monkeypatch.setattr(_exactpoly, "charpoly", counting)
    monkeypatch.setattr(_exactpoly, "_primes_covering", recording)
    g = edge_pair(14).gamma
    char_poly_adjacency(g)
    assert calls == [82] and budgets == [10]
    # the adjacency matrix took 14 under the Hadamard bound alone
    adj = g.adj.astype(np.int64)
    assert len(covering(2 * hadamard_bound(adj.tolist()) + 1)) == 14
    assert len(covering(2 * _coefficient_bound(adj) + 1)) == 13


def test_coefficient_bound_reads_only_the_order_the_sum_of_squares_and_the_trace():
    # a 40-cycle against a star with one more edge: both have S = 80 and
    # trace 0, but row norms sqrt(2) each against sqrt(39), sqrt(2), ...
    n = 40
    cycle = cycle_graph(n).adj.astype(np.int64)
    star = Graph.from_edges(n, [(0, i) for i in range(1, n)] + [(1, 2)]).adj.astype(np.int64)
    assert _coefficient_bound(cycle) == _coefficient_bound(star)
    # the edge 12 moved onto the diagonal keeps S = 80: as +1 and -1 it
    # keeps the trace 0 and the bound; as +1, +1 or -1, -1 it makes |tr| 2
    # and the bound larger, equal for either sign
    moved = {}
    for d in ((1, -1), (1, 1), (-1, -1)):
        m = star.copy()
        m[1, 2] = m[2, 1] = 0
        m[3, 3], m[4, 4] = d
        moved[d] = _coefficient_bound(m)
    assert moved[(1, -1)] == _coefficient_bound(star)
    assert moved[(1, 1)] == moved[(-1, -1)] > _coefficient_bound(star)


@settings(max_examples=50, deadline=None)
@given(mat=integer_matrices(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_coefficient_bound_ignores_where_the_entries_sit(mat, seed):
    # moves that keep n, S and |tr|: off-diagonal entries permuted among
    # the off-diagonal places with any signs, diagonal entries permuted
    # along the diagonal and all negated or not, and a transpose
    rng = np.random.default_rng(seed)
    n = len(mat)
    off = ~np.eye(n, dtype=bool)
    moved = np.zeros_like(mat)
    moved[off] = rng.permutation(mat[off]) * rng.choice([-1, 1], size=n * n - n)
    moved[np.diag_indices(n)] = rng.permutation(mat.diagonal().copy()) * rng.choice([-1, 1])
    if rng.integers(2):
        moved = moved.T
    assert abs(np.trace(moved)) == abs(np.trace(mat))
    assert _coefficient_bound(moved) == _coefficient_bound(mat)


def test_analyze_graphs_take_at_most_one_prime_more():
    # graphs 11 and 17 of the benchmark's graph6-analyze input at seed 0,
    # which took 10 and 12 primes under the row-norm bound
    text = (Path(__file__).parent / "data" / "analyze_seed0_graphs_11_17.g6").read_text()
    for line, before in zip(text.split(), (10, 12), strict=True):
        mat = decode_graph6(line).adj.astype(np.int64)
        assert len(_primes_covering(2 * _coefficient_bound(mat) + 1)) <= before + 1


def test_analyze_graphs_take_8_and_9_primes_under_the_trace_bound():
    # the same two graphs take 11 and 12 primes under the Hadamard bound
    # alone; both are sparse with trace 0, where Parseval's bound is smaller
    text = (Path(__file__).parent / "data" / "analyze_seed0_graphs_11_17.g6").read_text()
    before, now = [], []
    for line in text.split():
        mat = decode_graph6(line).adj.astype(np.int64)
        before.append(len(_primes_covering(2 * hadamard_bound(mat.tolist()) + 1)))
        now.append(len(_primes_covering(2 * _coefficient_bound(mat) + 1)))
    assert before == [11, 12]
    assert now == [8, 9]


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
    assert (mat % p)[1, 0] == 0
    assert charpoly(mat) == berkowitz_charpoly(mat)


@st.composite
def prime_groups(draw):
    """A matrix of order at most 12 and a group of 1-4 distinct primes, its
    entries drawn partly from multiples of the group's primes, so that
    some entries vanish modulo one prime of the group only."""
    group = draw(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True))
    primes = [_prime(i) for i in group]
    n = draw(st.integers(1, 12))
    special = [0] + [m * q for q in primes for m in (1, -1, 2)]
    entry = st.one_of(st.integers(-3, 3), st.sampled_from(special))
    mat = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)), dtype=np.int64)
    return mat.reshape(n, n), primes


@settings(max_examples=150, deadline=None)
@given(case=prime_groups())
def test_hessenberg_group_residues_equal_berkowitz(case):
    mat, primes = case
    want = berkowitz_charpoly(mat)
    residues = _hessenberg_group(mat, primes)
    assert len(residues) == len(primes)
    for res, p in zip(residues, primes):
        assert res.tolist() == [c % p for c in want]


@pytest.mark.parametrize("below", [[3], [0]], ids=["pivots-differ", "one-has-none"])
def test_hessenberg_group_splits_where_pivots_differ(below, monkeypatch):
    # column 0 holds p0 at row 1, which vanishes modulo p0 only: p1
    # pivots on row 1, and p0 on row 2, or nowhere when row 2 holds 0
    p0, p1 = _prime(0), _prime(1)
    mat = np.array(
        [[1, 2, 0, 1], [p0, 0, 1, 5], below + [1, 0, 2], [0, 4, 1, 3]], dtype=np.int64
    )
    calls = []
    group = _exactpoly._hessenberg_group

    def recording(a, primes):
        calls.append(list(primes))
        return group(a, primes)

    monkeypatch.setattr(_exactpoly, "_hessenberg_group", recording)
    residues = _residues(mat, [p0, p1])
    want = berkowitz_charpoly(mat)
    assert [r.tolist() for r in residues] == [[c % p for c in want] for p in (p0, p1)]
    # the group's primes run again, each alone and from the start, in
    # their order, whichever row each would pivot on
    assert calls == [[p0, p1], [p0], [p1]]


@pytest.mark.parametrize("mat", [[[2**63]], [[2**64 + 5]]])
def test_charpoly_refuses_entries_outside_int64(mat):
    # numpy stores 2^63 as uint64, whose int64 copy wraps to -2^63, and
    # 2^64 + 5 as a Python object that int64 cannot hold
    with pytest.raises(ValueError):
        charpoly(mat)


@pytest.mark.parametrize(
    "mat",
    [[[0] * 40] * 30, [[1, 2], [3, 4], [5, 6]]],
    ids=["wide-zero-30x40", "tall-3x2"],
)
def test_charpoly_refuses_a_non_square_matrix(mat):
    # a 30x40 zero matrix once came back as x^30; a 3x2 one failed only
    # inside numpy's matmul
    with pytest.raises(ValueError, match="square"):
        charpoly(mat)


@pytest.mark.parametrize(
    "mat,weights",
    [
        ([[0, 1], [2, 0]], [1, 1]),
        ([[0, 1], [2, 0]], [-2, -1]),
        ([[0, 1], [2, 0]], [2.0, 1.0]),
        ([[0, 1], [2, 0]], [2]),
        ([[3, 0], [7, 3]], [1, 0]),
        ([[3, 0], [7, 3]], [0, 1]),
    ],
    ids=["not-symmetric", "negative", "float", "too-few", "zero-symmetric", "zero"],
)
def test_charpoly_refuses_weights_that_do_not_symmetrize(mat, weights):
    # diag(2, 1) [[0, 1], [2, 0]] is symmetric, and diag(1, 0) [[3, 0], [7, 3]]
    # would be, but a zero weight gives no similarity
    assert charpoly([[0, 1], [2, 0]], weights=[2, 1]) == [-2, 0, 1]
    with pytest.raises(ValueError, match="weight"):
        charpoly(mat, weights=weights)


# -- the Krylov / Berlekamp-Massey route ----------------------------------------


def bm_alone(seq, p, n):
    """Berlekamp-Massey on one sequence, as (L, poly as a list)."""
    [(deg, poly)] = _berlekamp_massey_mod(np.array([seq], dtype=np.int64), [p], n)
    return deg, poly.tolist()


def lfsr_terms(poly, start, count, p):
    """``count`` terms of the recurrence with monic ``poly`` (low to high)
    from the initial terms ``start``."""
    L = len(poly) - 1
    s = list(start)
    while len(s) < count:
        s.append(-sum(c * x for c, x in zip(poly, s[len(s) - L :])) % p)
    return s


@pytest.mark.parametrize("n", [12, 520])
def test_berlekamp_massey_recovers_an_lfsr_from_2n_terms(n):
    # at n = 520 the discrepancy's dot product of up to n + 1 terms
    # crosses _DOT_CHUNK, so it runs in two chunks
    p = _prime(0)
    rng = np.random.default_rng(1986)
    poly = [int(c) for c in rng.integers(0, p, n)] + [1]
    s = lfsr_terms(poly, [int(x) for x in rng.integers(0, p, n)], 2 * n, p)
    assert bm_alone(s, p, n) == (n, poly)


def test_berlekamp_massey_stops_once_the_order_is_final():
    # an order-4 recurrence read with n = 12: after 4 + 12 terms no later
    # term can change the order, so the scan stops there and ignores what
    # follows, which a run bounded by the whole length does read
    p = _prime(0)
    n = 12
    poly = [3, p - 1, 0, 5, 1]
    s = lfsr_terms(poly, [1, 2, 3, 4], 2 * n, p)
    early = bm_alone(s, p, n)
    assert early == bm_alone(s, p, len(s)) == (4, poly)
    altered = s[: 4 + n] + [(x + 1) % p for x in s[4 + n :]]
    assert bm_alone(altered, p, n) == early
    assert bm_alone(altered, p, len(s)) != early


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.sampled_from([0, 0, 1, 2, -1, 12345]), min_size=16, max_size=16),
        min_size=1,
        max_size=5,
    )
)
def test_batched_berlekamp_massey_equals_each_row_alone(rows):
    # zeros make some rows' discrepancies vanish while others' do not,
    # so those rows leave the batch
    primes = [_prime(i) for i in range(len(rows))]
    s = np.array([[x % p for x in row] for row, p in zip(rows, primes)], dtype=np.int64)
    batch = _berlekamp_massey_mod(s, primes, 16)
    for t, p in enumerate(primes):
        deg, poly = batch[t]
        assert (deg, poly.tolist()) == bm_alone(s[t], p, 16)
        # the polynomial generates the sequence
        seq = s[t].tolist()
        for i in range(len(seq) - deg):
            assert sum(int(c) * x for c, x in zip(poly, seq[i:])) % p == 0


@st.composite
def sparse_matrices(draw, symmetric):
    """Sparse square integer matrices of order 1 to 40, ``symmetric`` or
    not: negative entries, some nonzero diagonal entries and some rows
    that are all zero, about half of them on a superdiagonal of ones."""
    n = draw(st.integers(min_value=1, max_value=40))
    index = st.integers(min_value=0, max_value=n - 1)
    value = st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(2**20), max_value=2**20),
    )
    mat = np.zeros((n, n), dtype=np.int64)
    if draw(st.booleans()):
        # a superdiagonal of ones, as in a companion matrix, makes a
        # derogatory matrix rare
        mat[np.arange(n - 1), np.arange(1, n)] = 1
    for i, j, x in draw(st.lists(st.tuples(index, index, value), max_size=n * n // 10 + 1)):
        mat[i, j] = x
    for i in draw(st.sets(index, max_size=3)):
        mat[i, i] = draw(st.sampled_from([-5, -1, 1, 7]))
    if symmetric:
        mat = np.triu(mat) + np.triu(mat, 1).T
    for i in draw(st.sets(index, max_size=max(1, n // 8))):
        mat[i] = 0
        if symmetric:
            mat[:, i] = 0
    return mat


@settings(max_examples=60, deadline=None)
@given(mat=sparse_matrices(symmetric=True))
def test_krylov_residues_of_full_degree_equal_hessenberg(mat):
    n = len(mat)
    primes = _primes_covering(2 * _coefficient_bound(mat) + 1)
    found = _berlekamp_massey_mod(_krylov_sequences(mat, primes, 2 * n), primes, n)
    for (deg, poly), p in zip(found, primes):
        assert deg <= n
        if deg == n:
            assert poly.tolist() == _hessenberg_group(mat, [p])[0].tolist()
    assert charpoly(mat) == berkowitz_charpoly(mat)


@settings(max_examples=60, deadline=None)
@given(mat=sparse_matrices(symmetric=False).filter(lambda m: not np.array_equal(m, m.T)))
def test_sparse_non_symmetric_matrices_take_no_krylov_batch(mat):
    # a non-symmetric sequence would cost one product per term, so every
    # prime takes the Hessenberg route however sparse the matrix is
    def refuse(mat, primes, N):
        raise AssertionError("a non-symmetric matrix ran the Krylov route")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_exactpoly, "_krylov_sequences", refuse)
        assert charpoly(mat) == berkowitz_charpoly(mat)


DEROGATORY = {
    "identity": np.eye(5, dtype=np.int64),
    "empty graph": empty_graph(6).adj,
    "K_3,3": complete_bipartite(3, 3).adj,
    "union of cycles": disjoint_union(cycle_graph(5), cycle_graph(7)).adj,
    "vertex_pair(3).gamma": vertex_pair(3).gamma.adj,
}


@pytest.mark.parametrize("name", DEROGATORY)
def test_derogatory_matrices_fall_back_and_agree_with_berkowitz(name):
    mat = DEROGATORY[name].astype(np.int64)
    n = len(mat)
    p = _prime(0)
    [(deg, _)] = _berlekamp_massey_mod(_krylov_sequences(mat, [p], 2 * n), [p], n)
    assert deg < n
    assert charpoly(mat) == berkowitz_charpoly(mat)


@pytest.mark.parametrize("terms", [_exactpoly._KRYLOV_TERMS, 200, 1])
def test_simple_spectrum_sparse_graph_never_takes_hessenberg(terms, monkeypatch):
    # a smaller cap on gathered terms splits the primes into more batches
    def refuse(mat, primes):
        raise AssertionError("the Hessenberg route ran")

    monkeypatch.setattr(_exactpoly, "_hessenberg_group", refuse)
    monkeypatch.setattr(_exactpoly, "_KRYLOV_TERMS", terms)
    g = path_graph(40)  # distinct eigenvalues 2 cos(k pi / 41)
    for mat in (g.adj.astype(np.int64), laplacian_matrix(g)):
        assert charpoly(mat) == berkowitz_charpoly(mat)


@pytest.mark.parametrize("terms", [_exactpoly._KRYLOV_TERMS, 1])
@pytest.mark.parametrize("shift", [0, 3])
def test_residues_of_degree_n_minus_1_are_completed_from_the_trace(shift, terms, monkeypatch):
    # a path on 39 vertices with a pendant vertex at 19: colour classes of
    # 21 and 19, so eigenvalue 0 twice and every other eigenvalue simple.
    # Its spectrum is symmetric, so the missing root is 0 = tr(A) + m_{n-2};
    # adding 3 I moves it to 3, which only the trace and m_{n-2} give.
    def refuse(mat, primes):
        raise AssertionError("the Hessenberg route ran")

    monkeypatch.setattr(_exactpoly, "_hessenberg_group", refuse)
    monkeypatch.setattr(_exactpoly, "_KRYLOV_TERMS", terms)
    n = 40
    g = Graph.from_edges(n, [(i, i + 1) for i in range(38)] + [(19, 39)])
    mat = g.adj.astype(np.int64) + shift * np.eye(n, dtype=np.int64)
    primes = _primes_covering(2 * _coefficient_bound(mat) + 1)
    assert len(primes) > 1
    found = _berlekamp_massey_mod(_krylov_sequences(mat, primes, 2 * n), primes, n)
    assert [deg for deg, _ in found] == [n - 1] * len(primes)
    assert charpoly(mat) == berkowitz_charpoly(mat)


def test_completed_residues_equal_hessenberg_on_bipartite_analyze_graphs():
    # graphs 11 and 17 of the benchmark's graph6-analyze input at seed 0:
    # bipartite, colour classes differing by 2
    text = (Path(__file__).parent / "data" / "analyze_seed0_graphs_11_17.g6").read_text()
    for line in text.split():
        mat = decode_graph6(line).adj.astype(np.int64)
        n = len(mat)
        primes = _primes_covering(2 * _coefficient_bound(mat) + 1)
        [(deg, _)] = _berlekamp_massey_mod(_krylov_sequences(mat, primes[:1], 2 * n), primes[:1], n)
        assert deg == n - 1
        residues = _residues(mat, primes)
        hessenberg = _hessenberg_group(mat, primes)
        for res, want in zip(residues, hessenberg, strict=True):
            assert res.tolist() == want.tolist()


def trace_routes(monkeypatch):
    """Record each Krylov call and each Hessenberg group, with its primes,
    in order.  A group whose primes would pivot on different rows calls
    ``_hessenberg_group`` again for each prime; only the outermost call
    of a group is recorded."""
    calls = []
    krylov = _exactpoly._krylov_sequences
    hessenberg = _exactpoly._hessenberg_group
    depth = [0]

    def traced_krylov(mat, primes, N):
        calls.append(("krylov", list(primes)))
        return krylov(mat, primes, N)

    def traced_hessenberg(a, primes):
        if not depth[0]:
            calls.append(("hessenberg", list(primes)))
        depth[0] += 1
        try:
            return hessenberg(a, primes)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_exactpoly, "_krylov_sequences", traced_krylov)
    monkeypatch.setattr(_exactpoly, "_hessenberg_group", traced_hessenberg)
    return calls


def test_paper_family_charpolys_take_59_hessenberg_primes_and_no_krylov_batch(monkeypatch):
    # the 15 instances of the benchmark's paper-families workload: each
    # adjacency charpoly runs on a twin quotient, which is not symmetric,
    # or on a dense matrix, so no prime spends a Krylov batch first
    calls = trace_routes(monkeypatch)
    for tag, k in [("vertex", k) for k in range(2, 11)] + [
        ("edge", k) for k in range(6, 15, 2)
    ] + [("edge-variant4", None)]:
        char_poly_adjacency(generate_family(tag, k).gamma)
    assert {route for route, _ in calls} == {"hessenberg"}
    assert sum(len(primes) for _, primes in calls) == 59


def test_analyze_graphs_take_no_hessenberg_prime(monkeypatch):
    # graphs 11 and 17 of the benchmark's graph6-analyze input at seed 0:
    # symmetric and sparse, with every Krylov sequence of degree n - 1
    calls = trace_routes(monkeypatch)
    text = (Path(__file__).parent / "data" / "analyze_seed0_graphs_11_17.g6").read_text()
    for line in text.split():
        char_poly_adjacency(decode_graph6(line))
    assert [route for route, _ in calls] == ["krylov", "krylov"]


def test_derogatory_sparse_graph_takes_one_krylov_batch_then_hessenberg(monkeypatch):
    calls = trace_routes(monkeypatch)
    g = cycle_graph(5)
    for _ in range(7):
        g = disjoint_union(g, cycle_graph(5))
    mat = g.adj.astype(np.int64)  # eight 5-cycles: every eigenvalue repeats
    primes = _primes_covering(2 * _coefficient_bound(mat) + 1)
    assert len(primes) > 1
    assert charpoly(mat) == berkowitz_charpoly(mat)
    # every prime falls short, and all of them take one Hessenberg group
    assert calls == [("krylov", primes), ("hessenberg", primes)]


@pytest.mark.parametrize(
    "order,entries", [(39, 1 << 18), (40, 2 * 40 * 40 - 1)],
    ids=["above-the-order-cutoff", "past-the-entry-cap"],
)
def test_short_primes_run_alone_past_either_group_limit(order, entries, monkeypatch):
    # the eight 5-cycles above, whose two primes take one group by default
    monkeypatch.setattr(_exactpoly, "_HESSENBERG_GROUP_ORDER", order)
    monkeypatch.setattr(_exactpoly, "_HESSENBERG_GROUP_ENTRIES", entries)
    calls = trace_routes(monkeypatch)
    g = cycle_graph(5)
    for _ in range(7):
        g = disjoint_union(g, cycle_graph(5))
    mat = g.adj.astype(np.int64)
    primes = _primes_covering(2 * _coefficient_bound(mat) + 1)
    assert len(primes) == 2
    assert charpoly(mat) == berkowitz_charpoly(mat)
    assert calls == [("krylov", primes)] + [("hessenberg", [p]) for p in primes]


def test_residues_take_one_krylov_call_per_prime_group(monkeypatch):
    # a path on 100 vertices has 198 nonzero entries, so a cap of 400
    # gathered terms groups its 3 primes as two and one
    mat = path_graph(100).adj.astype(np.int64)
    primes = _primes_covering(2 * _coefficient_bound(mat) + 1)
    want = [r.tolist() for r in _hessenberg_group(mat, primes)]
    calls = trace_routes(monkeypatch)
    monkeypatch.setattr(_exactpoly, "_KRYLOV_TERMS", 400)
    assert [r.tolist() for r in _residues(mat, primes)] == want
    assert calls == [("krylov", primes[:2]), ("krylov", primes[2:])]


def test_krylov_sequences_are_exact_where_int64_sums_overflow(monkeypatch):
    # every entry and every start-vector entry is p - 1: unreduced, 530
    # entry products summed along a row, or 530 products in one dot
    # product, pass 2^63
    p = _prime(0)
    top = p - 1
    n = 530
    mat = np.full((n, n), top, dtype=np.int64)
    monkeypatch.setattr(_exactpoly, "_krylov_start", lambda n: np.full(n, top, dtype=np.int64))
    assert 530 * top * top >= 2**63
    v = [top] * n
    x = v
    want = []
    for _ in range(4):
        want.append(sum(a * b for a, b in zip(v, x)) % p)
        x = [sum(a * b for a, b in zip(row, x)) % p for row in mat.tolist()]
    assert _krylov_sequences(mat, [p], 4)[0].tolist() == want
