"""Graph computations the benchmark checks the program against.

Nothing here imports specpairs.  Graphs are square boolean numpy
arrays.  Characteristic polynomials are never computed in full: they
are evaluated at a few points modulo ``Q``, a prime far above every
prime the program uses (those stay below 2^27), by Gaussian elimination
of xI - M.  Polynomials the program emits are evaluated at the same
points and must agree.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np

Q = 2_147_483_647  # 2^31 - 1; Q^2 < 2^63 keeps elementwise int64 products exact
POINTS = (3, 1_000_003, 987_654_321)


# -- graph6 ------------------------------------------------------------------


def _pack6(bits: np.ndarray) -> str:
    pad = (-len(bits)) % 6
    bits = np.concatenate([bits.astype(np.int64), np.zeros(pad, np.int64)])
    vals = bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1))
    return "".join(chr(63 + int(v)) for v in vals)


def encode_graph6(adj: np.ndarray) -> str:
    n = adj.shape[0]
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + _pack6(np.array([(n >> (17 - i)) & 1 for i in range(18)]))
    # upper triangle, column by column: x(0,1), x(0,2), x(1,2), x(0,3), ...
    rows, cols = np.triu_indices(n, 1)
    order = np.lexsort((rows, cols))
    return head + _pack6(adj[rows[order], cols[order]])


def decode_graph6(text: str) -> np.ndarray:
    s = text.strip()
    vals = np.frombuffer(s.encode(), dtype=np.uint8).astype(np.int64) - 63
    if s[0] == "~":
        n = int((vals[1] << 12) | (vals[2] << 6) | vals[3])
        body = vals[4:]
    else:
        n, body = int(vals[0]), vals[1:]
    bits = ((body[:, None] >> np.arange(5, -1, -1)) & 1).reshape(-1)
    rows, cols = np.triu_indices(n, 1)
    order = np.lexsort((rows, cols))
    adj = np.zeros((n, n), dtype=bool)
    adj[rows[order], cols[order]] = bits[: len(order)].astype(bool)
    return adj | adj.T


# -- modular characteristic polynomial values -----------------------------------


def det_mod(mat: np.ndarray, q: int = Q) -> int:
    """Determinant of an integer matrix modulo the prime q."""
    a = np.mod(np.asarray(mat, dtype=np.int64), q)
    n = a.shape[0]
    det = 1
    for j in range(n):
        nz = np.flatnonzero(a[j:, j])
        if nz.size == 0:
            return 0
        piv = j + int(nz[0])
        if piv != j:
            a[[j, piv]] = a[[piv, j]]
            det = -det
        p = int(a[j, j])
        det = det * p % q
        inv = pow(p, q - 2, q)
        f = a[j + 1 :, j] * inv % q
        a[j + 1 :, j:] = (a[j + 1 :, j:] - np.outer(f, a[j, j:]) % q) % q
    return det % q


def charpoly_at(mat: np.ndarray, x: int, q: int = Q) -> int:
    """det(xI - mat) mod q."""
    n = mat.shape[0]
    return det_mod(x * np.eye(n, dtype=np.int64) - np.asarray(mat, np.int64), q)


def poly_at(coeffs, x: int, q: int = Q) -> int:
    """Value mod q of the polynomial with coefficients low to high."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def digest(coeffs) -> str:
    """sha256 over the comma-joined decimal coefficients, the report format."""
    return hashlib.sha256(",".join(str(c) for c in coeffs).encode()).hexdigest()


def laplacian_from_adjacency(coeffs, degree: int) -> list:
    """Coefficients of (-1)^n p_A(d - x), the Laplacian char poly of a
    d-regular graph whose adjacency char poly is p_A (degree n)."""
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    # expand sum_k c_k (d - x)^k by repeated multiplication
    power = [1]  # (d - x)^k
    for c in coeffs:
        for i, v in enumerate(power):
            out[i] += c * v
        nxt = [0] * (len(power) + 1)
        for i, v in enumerate(power):
            nxt[i] += degree * v
            nxt[i + 1] -= v
        power = nxt
    sign = -1 if n % 2 else 1
    return [sign * v for v in out]


# -- structure ---------------------------------------------------------------


def laplacian(adj: np.ndarray) -> np.ndarray:
    a = adj.astype(np.int64)
    return np.diag(a.sum(axis=1)) - a


def line_graph(adj: np.ndarray) -> np.ndarray:
    """Line graph with vertex i = i-th edge (u < v) in lexicographic order."""
    us, vs = np.nonzero(np.triu(adj, 1))
    inc = np.zeros((len(us), adj.shape[0]), dtype=np.int64)
    inc[np.arange(len(us)), us] = 1
    inc[np.arange(len(us)), vs] = 1
    out = (inc @ inc.T) > 0
    np.fill_diagonal(out, False)
    return out


def connected(adj: np.ndarray, drop_vertices=(), drop_edges=()) -> bool:
    """BFS: are the vertices left after the deletions all in one component?"""
    a = adj.copy()
    for u, v in drop_edges:
        a[u, v] = a[v, u] = False
    alive = np.ones(a.shape[0], dtype=bool)
    alive[list(drop_vertices)] = False
    left = np.flatnonzero(alive)
    if left.size == 0:
        return True
    seen = np.zeros_like(alive)
    seen[left[0]] = True
    queue = deque([int(left[0])])
    while queue:
        u = queue.popleft()
        for w in np.flatnonzero(a[u] & alive & ~seen):
            seen[w] = True
            queue.append(int(w))
    return bool(seen[left].all())


def bipartite(adj: np.ndarray) -> bool:
    """BFS 2-coloring of every component."""
    n = adj.shape[0]
    color = np.full(n, -1)
    for start in range(n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in np.flatnonzero(adj[u]):
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(int(w))
                elif color[w] == color[u]:
                    return False
    return True


def fiedler_estimate(adj: np.ndarray) -> float:
    """numpy's float value of the second-smallest Laplacian eigenvalue."""
    return float(np.linalg.eigvalsh(laplacian(adj).astype(float))[1])


def nx_connectivity(adj: np.ndarray, edge: bool = True) -> tuple:
    """(kappa, kappa') by networkx, the third-party oracle; kappa' is
    None unless ``edge``."""
    import networkx as nx

    g = nx.from_numpy_array(adj.astype(np.int8))
    return nx.node_connectivity(g), nx.edge_connectivity(g) if edge else None
