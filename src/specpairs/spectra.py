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
certified similar to its source by an integer matrix built from the
switching plan, and the line graph of a regular graph follows from the
base graph's polynomial by Sachs' identity.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import _exactpoly
from .graph import Graph, line_graph

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

    def digest(self) -> str:
        """Stable content digest: sha256 over the decimal coefficient list."""
        text = ",".join(str(c) for c in self.coeffs)
        return hashlib.sha256(text.encode()).hexdigest()

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


@lru_cache(maxsize=64)
def char_poly_adjacency(g: Graph) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - A)."""
    return IntPolynomial(_exactpoly.charpoly(g.adj.astype(np.int64)))


@lru_cache(maxsize=64)
def char_poly_laplacian(g: Graph) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - (D - A)).

    For a d-regular graph this is the identity (-1)^n p_A(d - x), so it
    costs no charpoly beyond the adjacency one.
    """
    if g.n and g.is_regular():
        return _regular_laplacian(char_poly_adjacency(g), int(g.degrees()[0]))
    return IntPolynomial(_exactpoly.charpoly(laplacian_matrix(g)))


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
    coeffs = _exactpoly.taylor_shift(list(p.coeffs), 2 - d)
    for _ in range(extra):
        coeffs = [2 * c + b for c, b in zip(coeffs + [0], [0] + coeffs)]
    return IntPolynomial(coeffs)


def _plan_scale(plan) -> int:
    """The least l that makes l*Q integral for the plan's orthogonal
    switching matrix Q: the lcm over classes of size m of m/gcd(m, 2)."""
    sizes = [len(c) for c in plan.classes]
    return math.lcm(*(m // math.gcd(m, 2) for m in sizes)) if sizes else 1


def _plan_matrix(plan, ell: int) -> np.ndarray:
    """M = l*Q, with Q = (2/m)J - I on each class of size m and I
    elsewhere; ``ell`` is ``_plan_scale(plan)``."""
    mat = ell * np.eye(plan.n, dtype=np.int64)
    for cls in plan.classes:
        idx = np.asarray(cls, dtype=np.intp)
        block = np.full((idx.size, idx.size), 2 * ell // idx.size, dtype=np.int64)
        np.fill_diagonal(block, 2 * ell // idx.size - ell)
        mat[np.ix_(idx, idx)] = block
    return mat


def similarity_certificate(g: Graph, h: Graph, plan) -> frozenset:
    """The matrices ("adjacency", "laplacian") for which the switching
    plan proves h cospectral with g.

    With M = l*Q from ``_plan_matrix``, M^T M = l^2 I makes Q = M/l
    orthogonal, and then M^T X M = l^2 X' shows X' = Q^T X Q similar to
    X, for X the adjacency matrix or the Laplacian.  Every check is exact
    int64 arithmetic.  A matrix left out is only not proven by this
    certificate: the graphs may still share its spectrum.
    """
    if not (plan.n == g.n == h.n):
        return frozenset()
    ell = _plan_scale(plan)
    # a column of M has absolute sum at most 3l and |L_ij| <= n, so every
    # entry of M^T X M, and every partial sum on the way to it, is at
    # most 9 l^2 n in absolute value; below 2^63 int64 holds it exactly.
    # The bound is checked before M is built, since l itself may not
    # fit in an int64
    if 9 * ell * ell * max(g.n, 1) >= 1 << 63:
        return frozenset()
    mat = _plan_matrix(plan, ell)
    scale = ell * ell
    if not np.array_equal(mat.T @ mat, scale * np.eye(g.n, dtype=np.int64)):
        return frozenset()
    pairs = {
        "adjacency": (g.adj.astype(np.int64), h.adj.astype(np.int64)),
        "laplacian": (laplacian_matrix(g), laplacian_matrix(h)),
    }
    return frozenset(
        name for name, (x, y) in pairs.items()
        if np.array_equal(mat.T @ x @ mat, scale * y)
    )


@dataclass(frozen=True)
class PairSpectra:
    """The proven char polys of a pair (gamma, gamma_prime).

    ``adjacency`` and ``laplacian`` hold (p_gamma, p_gamma_prime);
    ``route`` maps "adjacency" and "laplacian" to the step that proved
    the pair's polynomials for that matrix beyond the charpoly of one
    base graph: "charpoly" (each side computed directly), "similarity"
    (gamma_prime's taken from gamma's by ``similarity_certificate``) or
    "identity" (both derived from already proven polynomials, by the
    regular Laplacian identity or by Sachs' line-graph identity).
    """

    adjacency: tuple
    laplacian: tuple
    route: dict


def _sachs_applies(fi) -> bool:
    """Whether Sachs' identity gives a line-graph instance's polynomials
    from its base pair: both base graphs d-regular with d >= 2, and each
    graph of the instance equal to the line graph of its base graph, as
    ``families.line_graph_family`` builds it."""
    if fi.base is None:
        return False
    return all(
        g.n and g.is_regular() and g.degrees()[0] >= 2
        and line_g.n == g.num_edges and line_graph(g) == line_g
        for line_g, g in (
            (fi.gamma, fi.base.gamma), (fi.gamma_prime, fi.base.gamma_prime)
        )
    )


def pair_char_polys(fi, base_spectra: PairSpectra | None = None) -> PairSpectra:
    """Adjacency and Laplacian char polys of ``fi.gamma`` and
    ``fi.gamma_prime``, each proven exactly in integer arithmetic.

    The adjacency pair comes from Sachs' identity applied to the base
    pair's proven polynomials (line-graph instances), else from one
    charpoly plus the plan's similarity certificate, else from two
    charpolys; a pair whose certificate fails therefore still gets its
    true polynomials.  A regular pair's Laplacians follow from the
    adjacency polynomials by identity, any other pair's from the
    certificate or from two charpolys.  ``base_spectra``, when given, is
    ``pair_char_polys(fi.base)`` already computed by the caller, and is
    used in place of proving the base pair again.
    """
    g, h = fi.gamma, fi.gamma_prime
    similar = frozenset()
    if fi.plan is not None:
        similar = similarity_certificate(g, h, fi.plan)
    if _sachs_applies(fi):
        base = fi.base
        if base_spectra is None:
            base_spectra = pair_char_polys(base)
        proven = base_spectra.adjacency
        adjacency = tuple(
            _line_graph_poly(p, int(b.degrees()[0]), b.num_edges - b.n)
            for p, b in zip(proven, (base.gamma, base.gamma_prime))
        )
        adj_route = "identity"
    elif "adjacency" in similar:
        p = char_poly_adjacency(g)
        adjacency, adj_route = (p, p), "similarity"
    else:
        adjacency = (char_poly_adjacency(g), char_poly_adjacency(h))
        adj_route = "charpoly"
    if g.n and g.is_regular() and h.is_regular():
        laplacian = tuple(
            _regular_laplacian(p, int(x.degrees()[0]))
            for p, x in zip(adjacency, (g, h))
        )
        lap_route = "identity"
    elif "laplacian" in similar:
        p = char_poly_laplacian(g)
        laplacian, lap_route = (p, p), "similarity"
    else:
        laplacian = (char_poly_laplacian(g), char_poly_laplacian(h))
        lap_route = "charpoly"
    return PairSpectra(
        adjacency, laplacian, {"adjacency": adj_route, "laplacian": lap_route}
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
    of connected graphs this characterizes bipartiteness.
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
