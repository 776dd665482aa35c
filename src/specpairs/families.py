"""Constructions of cospectral graph pairs with unequal connectivity.

Three switching-based families plus a line-graph derivation:

* ``vertex_pair(k)``: 2k-regular pairs of order 6k whose vertex
  connectivity differs (2k versus k+1) while both adjacency and
  Laplacian spectra agree.
* ``edge_pair(k)`` (even k >= 6): (3k-5)-regular pairs of order 10k-8
  whose edge connectivity differs (3k-5 versus 3k-6) while vertex
  connectivity stays 3 on both sides.
* ``edge_pair_variant4()``: a 7-regular pair of order 36 filling in
  k = 4, where the generic recipe needs blocks of negative degree; a
  12-vertex replacement block stands in for them.
* ``line_graph_family(fi)``: line graphs of a regular pair, cospectral
  with vertex connectivity equal to the base pair's edge connectivity;
  refused, for every caller, past order ``LINE_GRAPH_CEILING``.

Every instance carries the switching plan that produced it, the index
ranges of its construction blocks (``named``), and the metrics claimed
for it (``expected``; None marks a value no claim is made about).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, circulant, cycle_graph, empty_graph, line_graph
from .switching import SwitchingPlan, switch

__all__ = [
    "ExpectedMetrics",
    "FamilyInstance",
    "base_circulant_G",
    "vertex_pair",
    "edge_pair",
    "edge_pair_variant4",
    "line_graph_family",
    "generate_family",
    "paper_witnesses",
    "FAMILY_TAGS",
    "SINGLE_INSTANCE_FAMILIES",
    "EVEN_K_FAMILIES",
]


@dataclass(frozen=True)
class ExpectedMetrics:
    """Claimed metrics for a pair; None means no claim is made."""

    order: int
    degree: int
    kappa_gamma: object = None
    kappa_gamma_prime: object = None
    kappa_prime_gamma: object = None
    kappa_prime_gamma_prime: object = None


@dataclass(frozen=True)
class FamilyInstance:
    """A constructed pair (gamma, gamma_prime) plus its provenance.

    ``plan`` is the switching plan with gamma_prime == switch(gamma, plan),
    or None for derived (line graph) instances.  ``named`` maps block
    names to (start, stop) vertex ranges and role names to single
    vertices.  ``base`` is the instance a derived (line graph) instance
    was built from, or None.
    """

    tag: str
    k: int
    gamma: Graph
    gamma_prime: Graph
    plan: object
    named: dict
    expected: ExpectedMetrics
    base: object = None


# -- the base circulant ------------------------------------------------------


def base_circulant_G(k: int):
    """The k-regular triangle-free circulant on 3k-1 vertices, relabeled
    into role order.

    Starting graph: vertices Z_{3k-1}, i adjacent to i+k .. i+2k-1.  The
    relabeling puts the roles in contiguous ranges: V0 = the vertex 0,
    V1 = its neighbors, V2 = {1..k-1}, V3 = {2k..3k-2}.

    Returns (graph, ranges, old_to_new) where ranges maps "V0".."V3" to
    (start, stop) in the new labeling and old_to_new[old] = new.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    n = 3 * k - 1
    g = circulant(n, range(k, 2 * k))
    new_to_old = [0] + list(range(k, 2 * k)) + list(range(1, k)) + list(
        range(2 * k, n)
    )
    old_to_new = [0] * n
    for new, old in enumerate(new_to_old):
        old_to_new[old] = new
    adj = g.adj[np.ix_(new_to_old, new_to_old)]
    ranges = {
        "V0": (0, 1),
        "V1": (1, k + 1),
        "V2": (k + 1, 2 * k),
        "V3": (2 * k, n),
    }
    return Graph(n, adj), ranges, tuple(old_to_new)


# -- vertex-connectivity family ----------------------------------------------


def _vertex_family_blocks(k: int):
    """The X-U and X-V coupling blocks (N and M) of the vertex family."""
    n_blk = np.zeros((2 * k, k + 1), dtype=bool)
    n_blk[: k + 1] = np.eye(k + 1, dtype=bool)
    n_blk[k + 1 :] = True
    k_blk = np.zeros((2 * k, k - 1), dtype=bool)
    k_blk[k:] = True
    m_blk = np.concatenate([~n_blk, k_blk, ~k_blk], axis=1)
    return n_blk, m_blk


def vertex_pair(k: int) -> FamilyInstance:
    """The 2k-regular pair of order 6k with vertex connectivity 2k vs k+1.

    Layout: X = [0, 2k) (the switching class, independent), U = [2k, 3k+1)
    (a clique), V = [3k+1, 6k) (the base circulant in V0 V1 V2 V3 order).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    base, branges, _ = base_circulant_G(k)
    n_blk, m_blk = _vertex_family_blocks(k)
    nx, nu, nv = 2 * k, k + 1, 3 * k - 1
    adj = np.block(
        [
            [np.zeros((nx, nx), dtype=bool), n_blk, m_blk],
            [n_blk.T, ~np.eye(nu, dtype=bool), np.zeros((nu, nv), dtype=bool)],
            [m_blk.T, np.zeros((nv, nu), dtype=bool), base.adj],
        ]
    )
    gamma = Graph.from_adjacency(adj)
    plan = SwitchingPlan(6 * k, [range(2 * k)])
    gamma_prime = switch(gamma, plan)
    off = 3 * k + 1
    named = {
        "X": (0, 2 * k),
        "U": (2 * k, 3 * k + 1),
        "V": (off, 6 * k),
    }
    for key, (lo, hi) in branges.items():
        named[key] = (off + lo, off + hi)
    expected = ExpectedMetrics(
        order=6 * k,
        degree=2 * k,
        kappa_gamma=2 * k,
        kappa_gamma_prime=k + 1,
    )
    return FamilyInstance("vertex", k, gamma, gamma_prime, plan, named, expected)


# -- edge-connectivity family --------------------------------------------------


def _edge_l_matrix(k: int) -> np.ndarray:
    """The 2k x 2k block pairing the two switching classes: all-ones on
    the first k-1 coordinates, ones-minus-cycle on the last k+1."""
    small = k - 1
    l_mat = np.zeros((2 * k, 2 * k), dtype=bool)
    l_mat[:small, :small] = True
    l_mat[small:, small:] = ~cycle_graph(k + 1).adj
    return l_mat


def _m_stack(k: int, y_width: int, switched: bool) -> np.ndarray:
    """The stacked coupling of both classes to the free vertices.

    Rows: 4 consecutive blocks of k (class 1 first half + pivot, class 1
    remainder, class 2 first half + pivot, class 2 remainder).  Columns:
    4 consecutive blocks of k-2 starting at 0; everything at and beyond
    column 4(k-2) stays zero.  Switching swaps the column block assigned
    to each row block with its partner.
    """
    m = np.zeros((4 * k, y_width), dtype=bool)
    w = k - 2
    order = (2, 1, 3, 0) if switched else (1, 2, 0, 3)
    for blk, ci in enumerate(order):
        m[blk * k : (blk + 1) * k, ci * w : (ci + 1) * w] = True
    return m


def _edge_y_block(k: int, b1: Graph, b2: Graph) -> np.ndarray:
    """Internal adjacency of the free vertices: b1 and b2 joined to
    private cliques of orders k-1 and k+1."""
    o2 = 2 * k - 3
    o3 = 4 * k - 8
    o4 = 5 * k - 9
    total = 6 * k - 8
    y = np.zeros((total, total), dtype=bool)
    y[:o2, :o2] = b1.adj
    y[o2:o3, o2:o3] = b2.adj
    y[:o2, o3:o4] = True
    y[o3:o4, :o2] = True
    y[o2:o3, o4:] = True
    y[o4:, o2:o3] = True
    y[o3:o4, o3:o4] = ~np.eye(k - 1, dtype=bool)
    y[o4:, o4:] = ~np.eye(k + 1, dtype=bool)
    return y


def _check_filler(name: str, g: Graph, order: int, degree: int):
    if g.n != order:
        raise ValueError(f"{name} must have {order} vertices, got {g.n}")
    d = g.degrees()
    if g.n and not ((d == degree).all()):
        raise ValueError(f"{name} must be {degree}-regular")


def _default_fillers(k: int):
    b1 = circulant(2 * k - 3, range(1, (k - 4) // 2 + 1))
    if k == 6:
        b2 = empty_graph(2 * k - 5)
    else:
        b2 = circulant(2 * k - 5, range(1, (k - 6) // 2 + 1))
    return b1, b2


def _assemble_edge_pair(k, y_block, y_width):
    """Gamma, its plan, gamma_prime and the named classes and pivots that
    every edge builder shares, for the free part y_block of y_width."""
    l_mat = _edge_l_matrix(k)
    a1 = l_mat.copy()
    np.fill_diagonal(a1, False)
    stack = _m_stack(k, y_width, switched=False)
    adj = np.block(
        [
            [a1, l_mat, stack[: 2 * k]],
            [l_mat.T, a1, stack[2 * k :]],
            [stack[: 2 * k].T, stack[2 * k :].T, y_block],
        ]
    )
    gamma = Graph.from_adjacency(adj)
    plan = SwitchingPlan(4 * k + y_width, [range(2 * k), range(2 * k, 4 * k)])
    layout = {
        "X1": (0, 2 * k),
        "X11": (0, k - 1),
        "X12": (k - 1, 2 * k),
        "X2": (2 * k, 4 * k),
        "X21": (2 * k, 3 * k - 1),
        "X22": (3 * k - 1, 4 * k),
        "Y": (4 * k, 4 * k + y_width),
        "x1": k - 1,
        "x2": 3 * k - 1,
    }
    return gamma, plan, switch(gamma, plan), layout


def edge_pair(k: int, b1: Graph = None, b2: Graph = None) -> FamilyInstance:
    """The (3k-5)-regular pair of order 10k-8 with edge connectivity
    3k-5 vs 3k-6 (vertex connectivity 3 on both sides); k even, >= 6.

    Layout: switching classes X1 = [0, 2k) and X2 = [2k, 4k), each a
    (k-1)-clique followed by a (k+1)-(complete minus cycle); free part
    [4k, 10k-8) holding b1 (order 2k-3, (k-4)-regular), b2 (order 2k-5,
    (k-6)-regular) and two cliques.  Custom b1/b2 may be supplied; the
    defaults are circulants (b2 is edgeless at k = 6).

    Distinguished vertices: x1 = k-1 and x2 = 3k-1 (the pivots included
    with the first half of each class) and y = 6k-4 (the last vertex
    of b1).
    """
    if k < 6 or k % 2:
        raise ValueError("k must be even and at least 6")
    d1, d2 = _default_fillers(k)
    b1 = d1 if b1 is None else b1
    b2 = d2 if b2 is None else b2
    _check_filler("b1", b1, 2 * k - 3, k - 4)
    _check_filler("b2", b2, 2 * k - 5, k - 6)
    y_width = 6 * k - 8
    y_block = _edge_y_block(k, b1, b2)
    gamma, plan, gamma_prime, layout = _assemble_edge_pair(k, y_block, y_width)
    named = {
        **layout,
        "B1": (4 * k, 6 * k - 3),
        "B2": (6 * k - 3, 8 * k - 8),
        "clique_small": (8 * k - 8, 9 * k - 9),
        "clique_large": (9 * k - 9, 10 * k - 8),
        "y": 6 * k - 4,
    }
    expected = ExpectedMetrics(
        order=10 * k - 8,
        degree=3 * k - 5,
        kappa_gamma=3,
        kappa_gamma_prime=3,
        kappa_prime_gamma=3 * k - 5,
        kappa_prime_gamma_prime=3 * k - 6,
    )
    return FamilyInstance("edge", k, gamma, gamma_prime, plan, named, expected)


def _replacement_block() -> np.ndarray:
    """The 12-vertex block standing in for b1/b2 degrees at k = 4:
    3 coupling vertices matched into 9 clique-like vertices."""
    eye3 = np.eye(3, dtype=bool)
    return np.block(
        [[np.zeros((3, 3), dtype=bool)] + [eye3] * 3] + [[eye3] + [~eye3] * 3] * 3
    )


def edge_pair_variant4() -> FamilyInstance:
    """The 7-regular pair of order 36 with edge connectivity 7 vs 6.

    Same class structure as ``edge_pair`` at k = 4, but the free part is
    an edgeless block of 5 (joined to a triangle) plus a 12-vertex
    replacement block whose first three vertices take over the coupling
    columns that b2 would have carried.
    """
    k = 4
    y_width = 20
    y = np.zeros((y_width, y_width), dtype=bool)
    # edgeless block of 5 at [0, 5), replacement at [5, 17), triangle at [17, 20)
    y[5:17, 5:17] = _replacement_block()
    y[:5, 17:] = True
    y[17:, :5] = True
    y[17:, 17:] = ~np.eye(3, dtype=bool)
    gamma, plan, gamma_prime, layout = _assemble_edge_pair(k, y, y_width)
    named = {
        **layout,
        "B1": (16, 21),
        "B2": (21, 24),
        "replacement": (21, 33),
        "clique_small": (33, 36),
        "y": 20,
    }
    expected = ExpectedMetrics(
        order=36,
        degree=7,
        kappa_prime_gamma=7,
        kappa_prime_gamma_prime=6,
    )
    return FamilyInstance(
        "edge-variant4", k, gamma, gamma_prime, plan, named, expected
    )


# -- derived line-graph pairs --------------------------------------------------

# line graphs are built to prove their vertex connectivity by max-flow on
# the base graph: on 2 CPUs the linegraph check takes about 2 s at order
# 1736 (edge k=12) and 5 s at 2442 (edge k=14).  The ceiling sits just
# below L(L(edge_pair(6).gamma)), of order 4056, and refuses nothing
# smaller.  Below it, the Laplacian polynomials of line-of-edge k=14 and
# 16 and line-of-vertex k=20 to 25 have coefficients of more than 4300
# digits, which their reports write through ``IntPolynomial.decimals``
LINE_GRAPH_CEILING = 4000


def line_graph_family(fi: FamilyInstance) -> FamilyInstance:
    """Line graphs of a regular pair.

    The pair stays cospectral, turning an edge family into a vertex
    family of order n*d/2 and degree 2d-2.  The vertex connectivity of
    a line graph is at least the edge connectivity of its base, with
    equality exactly when some minimum edge cut of the base is not the
    edge star of a single vertex.  That is guaranteed whenever the edge
    connectivity is below the degree, so a claim is attached only in
    that case (when the two meet the minimum cuts can all be stars and
    the line graph's connectivity can exceed the base value).  A pair
    whose line graphs would pass ``LINE_GRAPH_CEILING`` vertices raises
    ValueError before anything is built.
    """
    if not (fi.gamma.is_regular() and fi.gamma_prime.is_regular()):
        raise ValueError("line graph derivation needs a regular pair")
    order = max(fi.gamma.num_edges, fi.gamma_prime.num_edges)
    if order > LINE_GRAPH_CEILING:
        edges = order * (int(fi.gamma.degrees().max()) - 1)
        raise ValueError(
            f"line-of-{fi.tag} k={fi.k} would build a line graph of order {order} "
            f"({edges} edges) and run max-flow vertex connectivity on it, "
            f"over the ceiling of order {LINE_GRAPH_CEILING}"
        )
    d = fi.expected.degree
    kpg = fi.expected.kappa_prime_gamma
    kpgp = fi.expected.kappa_prime_gamma_prime
    expected = ExpectedMetrics(
        order=fi.gamma.num_edges,
        degree=2 * d - 2,
        kappa_gamma=kpg if kpg is not None and kpg < d else None,
        kappa_gamma_prime=kpgp if kpgp is not None and kpgp < d else None,
    )
    return FamilyInstance(
        "line-of-" + fi.tag,
        fi.k,
        line_graph(fi.gamma),
        line_graph(fi.gamma_prime),
        None,
        {},
        expected,
        base=fi,
    )


# tag -> (builder of the base pair from k, or None for the single k=4
# variant; whether the family is the line graphs of that pair)
_REGISTRY = {
    "vertex": (vertex_pair, False),
    "edge": (edge_pair, False),
    "edge-variant4": (None, False),
    "line-of-edge": (edge_pair, True),
    "line-of-vertex": (vertex_pair, True),
    "line-of-edge-variant4": (None, True),
}
FAMILY_TAGS = tuple(_REGISTRY)
# families with one instance, built without k (k=4 is accepted too)
SINGLE_INSTANCE_FAMILIES = tuple(
    tag for tag, (build, _) in _REGISTRY.items() if build is None
)
# families defined for even k only
EVEN_K_FAMILIES = tuple(
    tag for tag, (build, _) in _REGISTRY.items() if build is edge_pair
)


def generate_family(tag: str, k=None) -> FamilyInstance:
    """Build a family instance by tag; the dispatch used by the CLI.  A
    line-of-* instance past ``LINE_GRAPH_CEILING`` is refused from its
    base pair, before its line graphs are built."""
    if tag not in _REGISTRY:
        raise ValueError(
            f"unknown family {tag!r}; expected one of " + ", ".join(FAMILY_TAGS)
        )
    build, line = _REGISTRY[tag]
    if build is None:
        if k not in (None, 4):
            raise ValueError(f"family {tag!r} is defined only at k=4")
        fi = edge_pair_variant4()
    elif k is None:
        raise ValueError(f"family {tag!r} needs k")
    else:
        fi = build(k)
    return line_graph_family(fi) if line else fi


# -- documented witnesses ------------------------------------------------------


def paper_witnesses(fi: FamilyInstance) -> dict:
    """The concrete disconnecting sets each family advertises.

    vertex tag: deleting the first k+1 vertices disconnects gamma_prime.
    edge tags: {x1, x2, y} is a 3-vertex cut of both graphs; a named
    (3k-4)-edge cut disconnects gamma and a named (3k-6)-edge cut
    disconnects gamma_prime.  Derived instances advertise nothing.
    """
    k = fi.k
    if fi.tag == "vertex":
        return {"vertex_cut_gamma_prime": tuple(range(k + 1))}
    if fi.tag in ("edge", "edge-variant4"):
        x1, x2, y = fi.named["x1"], fi.named["x2"], fi.named["y"]
        b1_lo, _ = fi.named["B1"]
        b2_lo, b2_hi = fi.named["B2"]
        x12 = fi.named["X12"]
        x11 = fi.named["X11"]
        gamma_cut = (
            [(min(x1, v), max(x1, v)) for v in range(b1_lo + k - 2, b1_lo + 2 * k - 4)]
            + [(min(x2, v), max(x2, v)) for v in range(b1_lo, b1_lo + k - 2)]
            + [(v, y) for v in range(x12[0], x12[1]) if v != x1]
        )
        prime_cut = (
            [(v, y) for v in range(x11[0], x11[1])]
            + [(min(x1, v), max(x1, v)) for v in range(b2_lo, b2_lo + k - 3)]
            + [(min(x2, v), max(x2, v)) for v in range(b2_lo + k - 3, b2_hi)]
        )
        return {
            "vertex_cut": (x1, x2, y),
            "edge_cut_gamma": tuple(sorted(gamma_cut)),
            "edge_cut_gamma_prime": tuple(sorted(prime_cut)),
        }
    return {}
