"""Exact spectral invariants of graphs.

Characteristic polynomials are computed over the integers (no floating
point anywhere in a decision path), so cospectrality checks are exact
equality of coefficient vectors.  The one numeric quantity that is not
an integer, the second-smallest Laplacian eigenvalue, is returned as a
rational enclosure certified by exact root counting; a floating-point
eigensolver is used only to propose the interval, never to decide it.

A family pair's polynomials are proved with as few charpolys as exact
identities allow (``pair_char_polys``): the Laplacian of a regular
graph follows from its adjacency polynomial, a switched graph is
certified similar to its source by the switching matrix, read from the
plan's classes, and the line graph of a regular graph follows from the
base graph's polynomial by Sachs' identity.  Each identity runs once
when both sides of the pair give it equal inputs.

The line graph's Laplacian follows from the base graph's Laplacian
polynomial mu_G.  Let G be d-regular with d >= 2, n vertices and
m = nd/2 >= n edges, and B its n x m vertex-edge incidence matrix.
Then B B^T = dI + A_G = 2dI - L_G and B^T B = 2I + A_L(G), and L(G) is
(2d - 2)-regular, so L_L(G) = (2d - 2)I - A_L(G) = 2dI - B^T B.  B^T B
and B B^T share their nonzero eigenvalues with multiplicity, and B^T B
has m - n more zeros, so det(xI - B^T B) = x^(m - n) det(xI - B B^T)
(Cvetkovic, Doob and Sachs, Spectra of Graphs).  Substituting 2d - x
for x turns the first into (-1)^m det(xI - L_L(G)) and the second into
(-1)^n (2d - x)^(m - n) mu_G(x), so
det(xI - L_L(G)) = (x - 2d)^(m - n) mu_G(x).

An adjacency charpoly itself runs on the graph's twin quotient when
that removes at least two dimensions.  The
twin classes C (N[u] = N[v] for true twins, tau_C = 1; N(u) = N(v) for
false twins, tau_C = 0) form an equitable partition with quotient
matrix Q, and det(xI - A) = det(xI - Q) prod_C (x + tau_C)^(|C| - 1).
Q is similar to a symmetric matrix whose squared entries sum to
S' = sum Q_ij Q_ji, so the prime budget reads S' (``char_poly_adjacency``).
The paper's edge family is built from cliques of true twins, so its
order falls by more than a third, for example from 132 to 82 at k = 14.
"""

from __future__ import annotations

import decimal
import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _exactpoly
from .graph import Graph

__all__ = [
    "IntPolynomial",
    "RationalInterval",
    "laplacian_matrix",
    "char_poly_adjacency",
    "char_poly_laplacian",
    "similarity_certificate",
    "PairSpectra",
    "pair_char_polys",
    "berkowitz_char_poly",
    "cospectral",
    "zero_root_multiplicity",
    "spectrum_symmetric",
    "second_smallest_laplacian_eigenvalue",
]


@dataclass(frozen=True)
class IntPolynomial:
    """An integer polynomial; ``coeffs[i]`` is the coefficient of x^i."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    @cached_property
    def _text(self) -> tuple:
        # made once per object, however many digests and lists read it
        return tuple(str(decimal.Decimal(c)) for c in self.coeffs)

    def decimals(self) -> list:
        """The coefficients as decimal strings, at any length: ``str``
        refuses an int of more than 4300 digits (Python 3.10.7 on), and
        ``decimal.Decimal`` gives the same text with no limit."""
        return list(self._text)

    def digest(self) -> str:
        """Stable content digest: sha256 over the decimal coefficient list."""
        return hashlib.sha256(",".join(self._text).encode()).hexdigest()

    def __repr__(self):
        return f"IntPolynomial(degree={self.degree})"


@dataclass(frozen=True)
class RationalInterval:
    """A closed interval with rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"RationalInterval({self.lo}, {self.hi})"


def laplacian_matrix(g: Graph) -> np.ndarray:
    """The integer Laplacian D - A as an int64 array."""
    a = g.adj.astype(np.int64)
    return np.diag(a.sum(axis=1)) - a


def _twin_classes(g: Graph) -> list:
    """g's twin classes as (vertices, tau), ordered by least vertex.

    u and v are twins when N(u) - {v} = N(v) - {u}: true twins (tau 1)
    when N[u] = N[v], false twins (tau 0) when N(u) = N(v).  No vertex
    has both: were u, v true twins and v, w false twins, u would lie in
    N(v) = N(w), so w in N[u] = N[v], against v, w not adjacent.  So the
    classes of the two kinds and the remaining single vertices (tau 0)
    partition V.
    """
    by_closed, by_open = {}, {}
    for v, row in enumerate(g.rows):
        by_closed.setdefault(row | 1 << v, []).append(v)
        by_open.setdefault(row, []).append(v)
    found = [(c, 1) for c in by_closed.values() if len(c) > 1]
    found += [(c, 0) for c in by_open.values() if len(c) > 1]
    paired = {v for c, _ in found for v in c}
    return sorted(found + [([v], 0) for v in range(g.n) if v not in paired])


def _times_power(coeffs: list, a: int, k: int) -> list:
    """The coefficients of p(x) (x + a)^k, low to high, for p's
    ``coeffs``: one product with (x + a)^k = sum_j C(k, j) a^(k - j) x^j.
    Its coefficients P_j come down from P_k = 1 by
    P_(j-1) = P_j a j / (k - j + 1), exact since C(k, j) j equals
    C(k, j - 1) (k - j + 1)."""
    power = [0] * k + [1]
    for j in range(k, 0, -1):
        power[j - 1] = power[j] * a * j // (k - j + 1)
    product = np.convolve(np.array(coeffs, dtype=object), np.array(power, dtype=object))
    return product.tolist()


def char_poly_adjacency(g: Graph) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - A).

    Computed through g's twin quotient when that removes at least two
    dimensions.  Let C_1, ..., C_r be the twin classes (``_twin_classes``).
    A vertex off a class sees all of it or none of it, so the partition
    is equitable: Q[i][j] = |N(v) & C_j| is the same for every v in C_i,
    and A maps the class indicator vectors among themselves by Q.  A
    vector x supported on one class C with sum 0 has Ax = 0 off C, and
    on C it has Ax = -x for true twins (tau_C = 1) and Ax = 0 for false
    twins (tau_C = 0).  Those vectors span the n - r dimensions beside
    the indicators, so
    det(xI - A) = det(xI - Q) prod_C (x + tau_C)^(|C| - 1).

    Q is not symmetric, but W = diag(|C_i|) Q is: W_ij counts the
    adjacent pairs (u, v) with u in C_i and v in C_j.  So Q is similar to
    the symmetric diag(|C_i|)^(1/2) Q diag(|C_i|)^(-1/2), whose squared
    entries sum to S' = sum_ij Q_ij Q_ji.  ``charpoly`` takes the class
    sizes as its ``weights``, checks that they symmetrize Q, and budgets
    its primes for S'.  A single twin pair removes one dimension, which
    the Krylov route's trace completion already recovers, so the matrix
    itself is used then.
    """
    classes = _twin_classes(g)
    if g.n - len(classes) < 2:
        return IntPolynomial(_exactpoly.charpoly(g.adj.astype(np.int64)))
    label = np.empty(g.n, dtype=np.intp)
    for i, (c, _) in enumerate(classes):
        label[c] = i
    members = np.eye(len(classes), dtype=np.int64)[label]
    quotient = g.adj[[c[0] for c, _ in classes]].astype(np.int64) @ members
    coeffs = _exactpoly.charpoly(quotient, weights=[len(c) for c, _ in classes])
    for tau in (0, 1):
        extra = sum(len(c) - 1 for c, t in classes if t == tau)
        coeffs = _times_power(coeffs, tau, extra)
    return IntPolynomial(coeffs)


def char_poly_laplacian(g: Graph) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - (D - A)).

    For a d-regular graph this is the identity (-1)^n p_A(d - x), so it
    costs no charpoly beyond the adjacency one.  Any other graph takes
    the charpoly of L - cI, with c the mean degree 2m / n rounded half
    up, and shifts it back: det(xI - L) = det((x - c) I - (L - cI)).
    Its trace 2m - cn is at most n / 2 in absolute value, where L's own
    trace 2m would void the budget's Parseval bound (``_exactpoly``),
    and its squared entries sum to no more than L's, so it takes fewer
    primes.
    """
    if g.n and g.is_regular():
        return _regular_laplacian(char_poly_adjacency(g), int(g.degrees()[0]))
    c = (4 * g.num_edges + g.n) // (2 * g.n) if g.n else 0
    shifted = _exactpoly.charpoly(laplacian_matrix(g) - c * np.eye(g.n, dtype=np.int64))
    return IntPolynomial(_exactpoly.taylor_shift(shifted, -c))


def _regular_laplacian(p: IntPolynomial, d: int) -> IntPolynomial:
    """The Laplacian polynomial of a d-regular graph with adjacency
    polynomial p: det(xI - (dI - A)) = (-1)^n p(d - x)."""
    n = len(p.coeffs) - 1
    shifted = _exactpoly.taylor_shift(list(p.coeffs), d)  # p(x + d)
    return IntPolynomial(
        c if (n - i) % 2 == 0 else -c for i, c in enumerate(shifted)
    )


def _line_graph_poly(p: IntPolynomial, d: int, extra: int) -> IntPolynomial:
    """Sachs' identity: the adjacency polynomial of the line graph of a
    d-regular graph with adjacency polynomial p and ``extra`` = m - n
    more edges than vertices is (x + 2)^(m - n) p(x - d + 2)."""
    return IntPolynomial(
        _times_power(_exactpoly.taylor_shift(list(p.coeffs), 2 - d), 2, extra)
    )


def _line_graph_laplacian(mu: IntPolynomial, d: int, extra: int) -> IntPolynomial:
    """The Laplacian polynomial of the line graph of a d-regular graph
    (d >= 2) with Laplacian polynomial mu and ``extra`` = m - n more
    edges than vertices: (x - 2d)^(m - n) mu(x) (module docstring)."""
    return IntPolynomial(_times_power(list(mu.coeffs), -2 * d, extra))


def _times_qs(x: np.ndarray, plan) -> np.ndarray:
    """X Q S for an integer matrix X, with Q = (2/|C|)J - I on each class
    C of the plan and I elsewhere, and S = diag(s), s_v = |C| on C and 1
    off every class: column j of X Q S is column j of X for a free j, and
    2 (the row sums of X over C) - |C| (column j of X) for j in C."""
    out = x.copy()
    for cls in plan.classes:
        idx = np.asarray(cls, dtype=np.intp)
        out[:, idx] = 2 * x[:, idx].sum(axis=1, keepdims=True) - idx.size * x[:, idx]
    return out


def similarity_certificate(g: Graph, h: Graph, plan) -> frozenset:
    """The matrices ("adjacency", "laplacian") for which the switching
    plan proves h cospectral with g.

    Q above (``_times_qs``) has Q^2 = I, since the plan's classes are
    disjoint and ((2/m)J - I)^2 = I for J of order m.  For X the
    adjacency matrix or the Laplacian of g and X' that of h, both
    symmetric, S X Q S = S Q X' S is (S X' Q S)^T, and it holds exactly
    when X Q = Q X', S being invertible, that is when X' = Q^-1 X Q is
    similar to X.  Each side costs O(n^2) in exact int64 arithmetic, and
    Q itself is never formed.  Once A Q = Q A' holds, L = D - A gives
    L Q - Q L' = D Q - Q D', so the Laplacians follow from the degrees
    alone (``_degrees_commute``) and are built only when the adjacency
    matrices fail.  A matrix left out is only not proven by this
    certificate: the graphs may still share its spectrum.
    """
    n = g.n
    if not (plan.n == n == h.n):
        return frozenset()
    # |X_ij| <= n - 1 and a row of X has absolute sum at most 2(n - 1), so
    # every entry of S X Q S, and every partial sum on the way to it, is
    # at most n (n - 1)(n + 4) < n^3 + 4n^2 in absolute value; below 2^63
    # int64 holds it exactly
    if n**3 + 4 * n**2 >= 1 << 63:
        return frozenset()
    s = np.ones((n, 1), dtype=np.int64)
    for cls in plan.classes:
        s[list(cls)] = len(cls)

    def similar(x, y):
        return np.array_equal(s * _times_qs(x, plan), (s * _times_qs(y, plan)).T)

    if similar(g.adj.astype(np.int64), h.adj.astype(np.int64)):
        if _degrees_commute(g.degrees(), h.degrees(), plan):
            return frozenset({"adjacency", "laplacian"})
        return frozenset({"adjacency"})
    if similar(laplacian_matrix(g), laplacian_matrix(h)):
        return frozenset({"laplacian"})
    return frozenset()


def _degrees_commute(d: np.ndarray, d2: np.ndarray, plan) -> bool:
    """Whether diag(d) Q = Q diag(d2) for Q above.  Entry (u, v) reads
    d_u Q_uv = Q_uv d2_v, and Q_uv is nonzero exactly for u = v off the
    classes, for u != v in one class, and for u = v in a class unless it
    has two vertices (2/2 - 1 = 0).  So a class of two must swap its
    degrees, any other class must hold one degree on both sides, and a
    vertex off the classes must keep its own."""
    same = d == d2
    for cls in plan.classes:
        c = list(cls)
        if len(c) == 2:
            same[c] = d[c] == d2[c[::-1]]
        else:
            same[c] = len(set(d[c].tolist()) | set(d2[c].tolist())) == 1
    return bool(same.all())


@dataclass(frozen=True)
class PairSpectra:
    """The proven char polys of a pair (gamma, gamma_prime).

    ``adjacency`` and ``laplacian`` hold (p_gamma, p_gamma_prime);
    ``route`` maps "adjacency" and "laplacian" to the step that proved
    the pair's polynomials for that matrix beyond the charpoly of one
    base graph: "charpoly" (each side computed directly), "similarity"
    (gamma_prime's taken from gamma's by ``similarity_certificate``) or
    "identity" (both derived from already proven polynomials, by the
    regular Laplacian identity, by Sachs' line-graph identity or by the
    line graph's Laplacian identity).
    The Laplacian pair is computed by ``prove_laplacian`` when it is
    first read, and kept.
    """

    adjacency: tuple
    route: dict
    prove_laplacian: Callable[[], tuple] = field(repr=False, compare=False)

    @cached_property
    def laplacian(self) -> tuple:
        return self.prove_laplacian()


def _sachs_applies(fi) -> bool:
    """Whether Sachs' identity gives a line-graph instance's polynomials
    from its base pair: both base graphs d-regular with d >= 2, and each
    graph of the instance built by ``line_graph`` from its base graph, as
    ``families.line_graph_family`` builds it."""
    if fi.base is None:
        return False
    return all(
        g.n and g.is_regular() and g.degrees()[0] >= 2 and line_g.base == g
        for line_g, g in (
            (fi.gamma, fi.base.gamma), (fi.gamma_prime, fi.base.gamma_prime)
        )
    )


def _each(identity, inputs):
    """identity(*inputs[0]) and identity(*inputs[1]), run once when the
    two inputs are equal."""
    first = identity(*inputs[0])
    return first, first if inputs[1] == inputs[0] else identity(*inputs[1])


def _charpolys(poly, g: Graph, h: Graph, matrix: str, similar: frozenset):
    """The route that proves the pair (poly(g), poly(h)) of ``matrix``,
    and a function that proves it on that route: "similarity", one
    charpoly, when the certificate ``similar`` holds ``matrix``, else
    "charpoly", one for each side."""
    if matrix in similar:
        return "similarity", lambda: (poly(g),) * 2
    return "charpoly", lambda: (poly(g), poly(h))


def pair_char_polys(fi, base_spectra: PairSpectra | None = None) -> PairSpectra:
    """Adjacency and Laplacian char polys of ``fi.gamma`` and
    ``fi.gamma_prime``, each proven exactly in integer arithmetic.

    A line-graph instance takes both pairs from the base pair's proven
    polynomials, by Sachs' identity and by the line graph's Laplacian
    identity.  Any other pair takes its adjacency pair from one charpoly
    plus the plan's similarity certificate, else from two charpolys; a
    pair whose certificate fails therefore still gets its true
    polynomials.  A regular pair's Laplacians follow from the adjacency
    polynomials by identity; an irregular pair's come from the
    certificate or from two charpolys.  Laplacians are computed only
    when read.  Each identity runs once when both sides pass it equal
    inputs, as a cospectral pair's sides do, and once per side when
    they differ.  ``base_spectra``, when given, is
    ``pair_char_polys(fi.base)`` already computed by the caller, and is
    used in place of proving the base pair again.
    """
    g, h = fi.gamma, fi.gamma_prime
    if _sachs_applies(fi):
        base = base_spectra or pair_char_polys(fi.base)
        shapes = [
            (int(b.degrees()[0]), b.num_edges - b.n)
            for b in (fi.base.gamma, fi.base.gamma_prime)
        ]
        adjacency = _each(
            _line_graph_poly, [(p, *s) for p, s in zip(base.adjacency, shapes)]
        )
        return PairSpectra(
            adjacency,
            {"adjacency": "identity", "laplacian": "identity"},
            lambda: _each(
                _line_graph_laplacian,
                [(mu, *s) for mu, s in zip(base.laplacian, shapes)],
            ),
        )
    similar = frozenset() if fi.plan is None else similarity_certificate(g, h, fi.plan)
    adj_route, prove = _charpolys(char_poly_adjacency, g, h, "adjacency", similar)
    adjacency = prove()
    if g.n and g.is_regular() and h.is_regular():
        inputs = [(p, int(x.degrees()[0])) for p, x in zip(adjacency, (g, h))]
        lap_route, laplacian = "identity", lambda: _each(_regular_laplacian, inputs)
    else:
        lap_route, laplacian = _charpolys(char_poly_laplacian, g, h, "laplacian", similar)
    return PairSpectra(
        adjacency, {"adjacency": adj_route, "laplacian": lap_route}, laplacian
    )


def berkowitz_char_poly(matrix) -> IntPolynomial:
    """Division-free characteristic polynomial of an integer matrix.

    An independent slow route (plain Python integers, no modular
    arithmetic); exists so the production path can be cross-checked.
    """
    return IntPolynomial(_exactpoly.berkowitz_charpoly(matrix))


def cospectral(g: Graph, h: Graph, matrix: str = "adjacency") -> bool:
    """Exact test: do g and h share the given matrix spectrum?"""
    if matrix == "adjacency":
        return char_poly_adjacency(g) == char_poly_adjacency(h)
    if matrix == "laplacian":
        return char_poly_laplacian(g) == char_poly_laplacian(h)
    raise ValueError(f"matrix must be 'adjacency' or 'laplacian', got {matrix!r}")


def zero_root_multiplicity(p: IntPolynomial) -> int:
    """Multiplicity of the root 0, i.e. the number of leading zero
    coefficients.  For a Laplacian char poly this is the component count."""
    k = 0
    while k < len(p.coeffs) and p.coeffs[k] == 0:
        k += 1
    if k == len(p.coeffs):
        raise ValueError("zero polynomial has no defined multiplicity")
    return k


def spectrum_symmetric(p: IntPolynomial) -> bool:
    """True when the root multiset of p is symmetric about 0.

    Equivalent to p(-x) == +/- p(x): every coefficient whose index has
    parity opposite to the degree must vanish.  For adjacency char polys
    of any graph, connected or not, this characterizes bipartiteness: a
    symmetric spectrum makes every odd moment tr A^(2k+1) vanish, and
    that moment counts the closed walks of length 2k + 1, so there is no
    odd cycle; the converse is Coulson-Rushbrooke.
    """
    d = p.degree
    return all(
        c == 0 for i, c in enumerate(p.coeffs) if (d - i) % 2 == 1
    )


def second_smallest_laplacian_eigenvalue(
    g: Graph, tol: Fraction = Fraction(1, 1 << 20), laplacian_poly=None
) -> RationalInterval:
    """A certified rational enclosure of the algebraic connectivity.

    The Laplacian char poly has the root 0; after deflating it once, the
    smallest remaining root is enclosed in an interval of width <= tol
    whose endpoints are dyadic rationals.  Membership is certified by
    exact Descartes root counts (valid because the polynomial is
    real-rooted), so floating point only suggests a candidate interval
    and a failed suggestion falls back to exact bisection.

    Disconnected graphs return the exact degenerate interval [0, 0].
    ``laplacian_poly`` may pass g's Laplacian char poly when it is
    already proven (see ``pair_char_polys``); by default it is computed.
    """
    if g.n < 2:
        raise ValueError("needs at least 2 vertices")
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    p = char_poly_laplacian(g) if laplacian_poly is None else laplacian_poly
    if len(p.coeffs) != g.n + 1:
        raise ValueError(f"Laplacian polynomial has degree {p.degree}, not {g.n}")
    q = list(p.coeffs[1:])  # deflate the guaranteed root at 0
    if q[0] == 0:
        return RationalInterval(0, 0)
    deg = g.n - 1

    def above(x: Fraction) -> int:
        # x must be dyadic; exact count of roots of q greater than x
        sb = x.denominator.bit_length() - 1
        return _exactpoly.count_roots_greater(q, x.numerator, sb)

    # dyadic grid fine enough that a 2-cell interval meets tol
    s = 1
    while Fraction(2, 1 << s) > tol:
        s += 1

    lap = laplacian_matrix(g).astype(float)
    seed = float(np.linalg.eigvalsh(lap)[1])
    a = math.floor(seed * (1 << s))
    lo = Fraction(max(a - 1, 0), 1 << s)
    hi = Fraction(a + 1, 1 << s)
    if above(lo) == deg and above(hi) < deg:
        return RationalInterval(lo, hi)

    # certified bisection; invariant: all deg roots exceed lo, some root <= hi
    lo, hi = Fraction(0), Fraction(g.n)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if above(mid) == deg:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi)
