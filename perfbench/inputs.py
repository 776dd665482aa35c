"""The benchmark's workloads: the CLI calls each one makes, and the
seeded graph6 input of ``graph6-analyze``.

``paper-families`` and ``line-graphs`` run fixed family instances, so
their inputs do not depend on the seed.  ``graph6-analyze`` draws its
graphs from ``numpy.random.default_rng(seed)``; the orders and the mix
of kinds are fixed, so every seed asks for the same amount of work and
only the edges differ.
"""

from __future__ import annotations

import hashlib

import numpy as np

import oracle

FAMILY_CHECKS = "cospectral,kappa,kappa_prime,whitney,fiedler"
LINE_CHECKS = "cospectral,kappa"

# (family, k) pairs of paper-families; k=None is edge-variant4
PAPER_FAMILIES = (
    [("vertex", k) for k in range(2, 11)]
    + [("edge", k) for k in range(6, 15, 2)]
    + [("edge-variant4", None)]
)
# (line family, base family, k)
LINE_FAMILIES = (
    ("line-of-edge-variant4", "edge-variant4", None),
    ("line-of-edge", "edge", 6),
)

ANALYZE_ORDERS = tuple(130 + (90 * i) // 19 for i in range(20))
GENERATOR_VERSION = 1


def verify_argv(family, k, checks):
    argv = ["verify", "--family", family]
    if k is not None:
        argv += ["--k", str(k)]
    return argv + ["--checks", checks, "--json"]


def operations(workload: str, graph6_path=None) -> list:
    """The argv of every CLI call in one pass of the workload."""
    if workload == "paper-families":
        return [verify_argv(f, k, FAMILY_CHECKS) for f, k in PAPER_FAMILIES]
    if workload == "line-graphs":
        return [verify_argv(f, k, LINE_CHECKS) for f, _, k in LINE_FAMILIES]
    if workload == "graph6-analyze":
        return [["analyze", "--in", str(graph6_path), "--polys", "--json"]]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("paper-families", "line-graphs", "graph6-analyze")


# -- graph6-analyze input ------------------------------------------------------


def _block(rng, size, colors=None):
    """A sparse connected irregular graph: a Hamiltonian cycle, a random
    matching and a few chords.  With ``colors`` (0/1 per vertex, the
    cycle alternating) every added edge joins the two colors."""
    adj = np.zeros((size, size), dtype=bool)
    order = rng.permutation(size)
    if colors is not None:
        # alternate colors around the cycle
        whites = order[colors[order] == 0]
        blacks = order[colors[order] == 1]
        order = np.empty(size, dtype=np.int64)
        order[0::2], order[1::2] = whites, blacks
    for a, b in zip(order, np.roll(order, 1)):
        adj[a, b] = adj[b, a] = True
    if colors is None:
        pairs = rng.permutation(size)
        half = size // 2
        for a, b in zip(pairs[:half], pairs[half : 2 * half]):
            adj[a, b] = adj[b, a] = True
        adj[order[0], order[2]] = adj[order[2], order[0]] = True  # a triangle
        chords = size // 8
        ends = rng.integers(0, size, size=(chords, 2))
    else:
        w = rng.permutation(np.flatnonzero(colors == 0))
        bl = rng.permutation(np.flatnonzero(colors == 1))
        for a, b in zip(w, bl):
            adj[a, b] = adj[b, a] = True
        chords = size // 8
        ends = np.stack(
            [rng.choice(np.flatnonzero(colors == 0), chords),
             rng.choice(np.flatnonzero(colors == 1), chords)], axis=1)
    for a, b in ends:
        if a != b:
            adj[a, b] = adj[b, a] = True
    # raise every degree to at least 3
    for v in np.flatnonzero(adj.sum(axis=1) < 3):
        while adj[v].sum() < 3:
            ok = ~adj[v]
            ok[v] = False
            if colors is not None:
                ok &= colors != colors[v]
            u = rng.choice(np.flatnonzero(ok))
            adj[v, u] = adj[u, v] = True
    return adj


def _planted(rng, n, cut, bipartite):
    """Two blocks joined only through ``cut`` separator vertices, each
    with 3 or 4 edges into either block: kappa <= cut < kappa'."""
    left = (n - cut) // 2
    right = n - cut - left
    if bipartite:
        # even blocks keep the alternating cycle; cut vertices are white
        left += left % 2
        right -= right % 2
        cut = n - left - right
        colors = [np.arange(left) % 2, np.arange(right) % 2]
    else:
        colors = [None, None]
    adj = np.zeros((n, n), dtype=bool)
    adj[:left, :left] = _block(rng, left, colors[0])
    adj[left : left + right, left : left + right] = _block(rng, right, colors[1])
    for s in range(left + right, n):
        for lo, size, col in ((0, left, colors[0]), (left, right, colors[1])):
            pool = np.arange(size) if col is None else np.flatnonzero(col == 1)
            for v in rng.choice(pool, size=int(rng.integers(3, 5)), replace=False):
                adj[s, lo + v] = adj[lo + v, s] = True
    return adj


def analyze_graphs(seed: int) -> list:
    """20 sparse irregular connected graphs of orders ANALYZE_ORDERS.

    Returns [(adjacency, bipartite)].  Graphs 5, 11 and 17 are
    bipartite; every graph but 0, 8 and 16 has a planted 1- or
    2-vertex separator.  Vertices are relabeled at random.
    """
    rng = np.random.default_rng(seed)
    out = []
    for i, n in enumerate(ANALYZE_ORDERS):
        bip = i % 6 == 5
        if i % 8 == 0:
            adj = _block(rng, n)
        else:
            adj = _planted(rng, n, 1 + i % 2, bip)
        perm = rng.permutation(n)
        out.append((adj[np.ix_(perm, perm)], bip))
    return out


def fingerprint(graphs) -> list:
    """sha256 of each graph's graph6 line, to pin the generator's output."""
    return [hashlib.sha256(oracle.encode_graph6(adj).encode()).hexdigest()
            for adj, _ in graphs]
