"""Immutable dense graphs: constructors, copy-on-write edits, graph6 I/O.

Vertices are the integers 0..n-1.  Every constructor documents its vertex
ordering because downstream constructions assign roles positionally
("the first vertex of ...", "the last vertex of ...").  Graphs are value
objects: the adjacency matrix is frozen on construction and all edit
operations return new graphs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "Graph6Error",
    "ComponentPartition",
    "circulant",
    "line_graph",
    "delete_vertices",
    "delete_edges",
    "components",
    "disjoint_union",
    "encode_graph6",
    "decode_graph6",
    "empty_graph",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "complete_bipartite",
    "two_coloring",
]


class Graph6Error(ValueError):
    """Malformed graph6 text.  ``offset`` is the byte position of the fault."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


def _integer(value, what):
    """``value`` as an int, refusing bools, floats and non-numbers rather
    than truncating them."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class Graph:
    """An undirected simple graph stored as a dense boolean adjacency matrix.

    The order must be an integer and is stored as an int.  The matrix is
    validated (square, entries 0 or 1, symmetric, zero diagonal),
    defensively copied, and marked read-only, so a ``Graph`` can never
    drift out of its invariants after construction.

    ``base`` is set only by ``line_graph``, to the graph this is the line
    graph of; it is None otherwise, and equality and hashing ignore it.
    """

    n: int
    adj: np.ndarray
    base: Graph | None = field(default=None, init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n"))
        a = np.asarray(self.adj)
        if a.shape != (self.n, self.n):
            raise ValueError(
                f"adjacency shape {a.shape} does not match n={self.n}"
            )
        if a.dtype != bool:
            bad = np.argwhere((a != 0) & (a != 1))
            if bad.size:
                i, j = (int(x) for x in bad[0])
                raise ValueError(
                    f"adjacency entry {a[i, j]} at ({i}, {j}) is not 0 or 1"
                )
        a = a.astype(bool)  # a copy, so the caller's array stays its own
        if self.n and a.diagonal().any():
            v = int(np.flatnonzero(a.diagonal())[0])
            raise ValueError(f"self-loop at vertex {v}")
        if not np.array_equal(a, a.T):
            bad = np.argwhere(a != a.T)[0]
            raise ValueError(
                f"adjacency not symmetric at ({int(bad[0])}, {int(bad[1])})"
            )
        a.setflags(write=False)
        object.__setattr__(self, "adj", a)

    @classmethod
    def from_adjacency(cls, matrix) -> "Graph":
        """Build a graph from any square 0/1 array-like."""
        m = np.asarray(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {m.shape}")
        return cls(m.shape[0], m)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph on n vertices from an iterable of (u, v) pairs."""
        n = _integer(n, "n")
        a = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            u, v = _integer(u, "vertex"), _integer(v, "vertex")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            a[u, v] = a[v, u] = True
        return cls(n, a)

    # -- queries ---------------------------------------------------------

    @cached_property
    def rows(self) -> tuple:
        """Each adjacency row as a Python-int bitmask: bit w of rows[v] is
        the edge vw.  Packed on first read and kept; every bitmask
        traversal of the graph reads these."""
        return _bitrows(self.adj)

    @property
    def num_edges(self) -> int:
        return int(self.adj.sum()) // 2

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1, dtype=np.int64)

    def degree(self, v: int) -> int:
        return int(self.adj[v].sum())

    def min_degree(self) -> int:
        return int(self.degrees().min()) if self.n else 0

    def is_regular(self) -> bool:
        if self.n == 0:
            return True
        d = self.degrees()
        return bool((d == d[0]).all())

    def neighbors(self, v: int) -> list:
        return [int(u) for u in np.flatnonzero(self.adj[v])]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def edges(self) -> list:
        """All edges as (min, max) pairs in lexicographic order."""
        iu = np.argwhere(np.triu(self.adj, k=1))
        return [(int(u), int(v)) for u, v in iu]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


# -- small named constructors ---------------------------------------------


def empty_graph(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Graph(n, np.zeros((n, n), dtype=bool))


def complete_graph(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = np.ones((n, n), dtype=bool)
    np.fill_diagonal(a, False)
    return Graph(n, a)


def cycle_graph(n: int) -> Graph:
    """The n-cycle 0-1-...-(n-1)-0, n >= 3."""
    n = _integer(n, "n")
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: vertices 0..a-1 on one side, a..a+b-1 on the other."""
    a, b = _integer(a, "part size"), _integer(b, "part size")
    if a < 0 or b < 0:
        raise ValueError("part sizes must be nonnegative")
    m = np.zeros((a + b, a + b), dtype=bool)
    m[:a, a:] = True
    m[a:, :a] = True
    return Graph(a + b, m)


def circulant(n: int, jumps) -> Graph:
    """Circulant graph on Z_n: i ~ i+j and i-j (mod n) for each jump j.

    Jumps are reduced mod n and closed under negation, so the result is
    regular of degree |{j, n-j : j in jumps}|.
    """
    n = _integer(n, "n")
    if n <= 0:
        raise ValueError("n must be positive")
    js = set()
    for j in jumps:
        r = _integer(j, "jump") % n
        if r == 0:
            raise ValueError(f"jump {j} is 0 mod {n}")
        js.add(r)
        js.add(n - r)
    if not js:
        raise ValueError("jumps must be nonempty")
    row = np.zeros(n, dtype=bool)
    row[sorted(js)] = True
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return Graph(n, row[idx])


# -- derived graphs and edits ----------------------------------------------


def line_graph(g: Graph) -> Graph:
    """The line graph: one vertex per edge of g, adjacent when edges share
    an endpoint.

    Vertex i of the result is edge ``g.edges()[i]``, i.e. edges are taken
    as (min, max) pairs in lexicographic order.  The result's ``base`` is g.
    """
    es = g.edges()
    m = len(es)
    ends = np.array(es, dtype=np.int64).reshape(m, 2)
    a = np.zeros((m, m), dtype=bool)
    if m:
        shared = (
            (ends[:, None, 0] == ends[None, :, 0])
            | (ends[:, None, 0] == ends[None, :, 1])
            | (ends[:, None, 1] == ends[None, :, 0])
            | (ends[:, None, 1] == ends[None, :, 1])
        )
        np.fill_diagonal(shared, False)
        a = shared
    line = Graph(m, a)
    object.__setattr__(line, "base", g)
    return line


def delete_vertices(g: Graph, vertices):
    """Remove a set of vertices.

    Returns (graph, mapping) where mapping[old] = new for every kept
    vertex; kept vertices stay in their original relative order.
    """
    drop = set()
    for v in vertices:
        v = _integer(v, "vertex")
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
        drop.add(v)
    keep = [v for v in range(g.n) if v not in drop]
    mapping = {old: new for new, old in enumerate(keep)}
    sub = g.adj[np.ix_(keep, keep)]
    return Graph(len(keep), sub), mapping


def delete_edges(g: Graph, edges) -> Graph:
    """Remove a set of edges (each must be present; order within a pair
    does not matter)."""
    a = g.adj.copy()
    for u, v in edges:
        u, v = _integer(u, "vertex"), _integer(v, "vertex")
        if not (0 <= u < g.n and 0 <= v < g.n) or not a[u, v]:
            raise ValueError(f"edge ({u}, {v}) not in graph")
        a[u, v] = a[v, u] = False
    return Graph(g.n, a)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g followed by h on a fresh vertex range (h's vertex v becomes g.n+v)."""
    n = g.n + h.n
    a = np.zeros((n, n), dtype=bool)
    a[: g.n, : g.n] = g.adj
    a[g.n :, g.n :] = h.adj
    return Graph(n, a)


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components: labels[v] is the component of v, numbered
    0..count-1 in order of first appearance by vertex index."""

    labels: tuple
    count: int


def _bitrows(rows) -> tuple:
    """Each row of a boolean matrix as a Python-int bitmask."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return tuple(int.from_bytes(r.tobytes(), "little") for r in packed)


def _bits(mask):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _levels(rows, seed: int, alive: int = -1, stop: int = 0) -> list:
    """Breadth-first levels, as bitmasks, from the vertex set ``seed``
    through the vertices of ``alive``.

    Level 0 is seed and level i + 1 holds the alive vertices first reached
    from level i along ``rows`` (bit w of rows[v] is the arc v -> w).  The
    search ends when no new vertex is reached, or after the first level
    that meets ``stop``.  The levels are disjoint and nonempty.
    """
    levels = []
    frontier, unseen = seed, alive & ~seed
    while frontier:
        levels.append(frontier)
        if frontier & stop:
            break
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & unseen
        unseen ^= frontier
    return levels


def components(g: Graph) -> ComponentPartition:
    """Each component is the breadth-first search from its least vertex."""
    rows = g.rows
    labels = [-1] * g.n
    unseen = (1 << g.n) - 1
    count = 0
    while unseen:
        comp = sum(_levels(rows, unseen & -unseen))  # the levels are disjoint
        for v in _bits(comp):
            labels[v] = count
        unseen ^= comp
        count += 1
    return ComponentPartition(tuple(labels), count)


def two_coloring(g: Graph):
    """A proper 2-coloring as a tuple of 0/1, or None if an odd cycle
    exists.  Color 0 is assigned to the least vertex of each component.

    Each component is colored by the parity of its breadth-first levels
    from its least vertex.  Every edge joins one level to itself or to the
    next, and the coloring is proper unless some edge stays inside one
    level, which closes an odd cycle through the two paths to the root.
    """
    rows = g.rows
    odd, unseen = 0, (1 << g.n) - 1
    while unseen:
        levels = _levels(rows, unseen & -unseen)
        if any(rows[v] & level for level in levels for v in _bits(level)):
            return None
        odd |= sum(levels[1::2])  # the levels are disjoint
        unseen ^= sum(levels)
    return tuple(odd >> v & 1 for v in range(g.n))


# -- graph6 ----------------------------------------------------------------
#
# Encoding (bit-identical with the standard tools):
#   N(n): n <= 62 -> chr(63+n); 63 <= n <= 258047 -> '~' + 3 chars carrying
#   18 bits; larger (up to 2^36-1) -> '~~' + 6 chars carrying 36 bits.
#   Then the upper triangle x_{0,1}, x_{0,2}, x_{1,2}, x_{0,3}, ... is
#   packed big-endian, 6 bits per character, each character offset by 63,
#   zero-padded to a multiple of 6.  That order is the row-major order of
#   the strict lower triangle, np.tril_indices(n, -1).

_SIXBITS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def _lower(n: int) -> np.ndarray:
    """Mask of the strict lower triangle; indexing with it reads graph6 order."""
    return np.tri(n, k=-1, dtype=bool)


def _encode_bits(bits: np.ndarray) -> str:
    """0/1 values as graph6 characters: big-endian 6-bit groups, zero-padded."""
    groups = np.zeros(-(-bits.size // 6) * 6, dtype=np.uint8)
    groups[: bits.size] = bits
    return (groups.reshape(-1, 6) @ _SIXBITS + 63).tobytes().decode("ascii")


def encode_graph6(g: Graph) -> str:
    """One-line graph6 text for g (no trailing newline)."""
    n = g.n
    if n > 68719476735:
        raise ValueError("graph6 supports at most 2^36 - 1 vertices")
    if n <= 62:
        head = chr(63 + n)
    elif n <= 258047:
        head = "~" + _encode_bits(n >> np.arange(17, -1, -1) & 1)
    else:
        head = "~~" + _encode_bits(n >> np.arange(35, -1, -1) & 1)
    return head + _encode_bits(g.adj[_lower(n)])


def decode_graph6(text: str) -> Graph:
    """Parse one graph6 line.  Raises Graph6Error with a byte offset on
    malformed input."""
    s = text.rstrip("\n")
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6Error("empty graph6 text", 0)
    codes = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    pos = 0

    def take(k, what):
        nonlocal pos
        if pos + k > len(s):
            raise Graph6Error(f"truncated {what}", len(s))
        vals = codes[pos : pos + k].astype(np.int64) - 63
        bad = np.flatnonzero((vals < 0) | (vals > 63))
        if bad.size:
            at = pos + int(bad[0])
            raise Graph6Error(f"character {s[at]!r} outside graph6 range", at)
        pos += k
        return vals

    if s[0] == "~":
        wide = len(s) >= 2 and s[1] == "~"
        pos = 2 if wide else 1
        n = 0
        for v in take(6, "36-bit order") if wide else take(3, "18-bit order"):
            n = (n << 6) | int(v)
    else:
        n = int(take(1, "order")[0])
    need = n * (n - 1) // 2
    body_at = pos
    vals = take(-(-need // 6), "adjacency bits")
    if pos != len(s):
        raise Graph6Error("trailing characters after adjacency bits", pos)
    bits = (vals[:, None] & _SIXBITS).astype(bool).ravel()
    padding = np.flatnonzero(bits[need:])
    if padding.size:
        raise Graph6Error(
            "nonzero padding in final character", body_at + (need + int(padding[0])) // 6
        )
    a = np.zeros((n, n), dtype=bool)
    a[_lower(n)] = bits[:need]
    return Graph(n, a | a.T)
