"""Exact vertex and edge connectivity with checkable witnesses.

Local connectivity between a vertex pair is a maximum flow on a
unit-capacity network, found in Dinic's phases of shortest augmenting
paths.  A run goes from a set of source nodes to a set of sink nodes,
each a bitmask.  One flow routine serves two networks:

* vertex: the Even-Tarjan split network.  Node 2v is "into v" and node
  2v+1 is "out of v"; the arc 2v -> 2v+1 makes paths internally
  disjoint, and every edge uv gives the arcs 2u+1 -> 2v and 2v+1 -> 2u.
  An s-t run goes from node 2s+1 to node 2t.
* edge: node v is vertex v, with one arc each way along every edge.

Both are Python-int bitmasks, out-arcs and in-arcs per node.  The plain
network is the graph's own packed rows, ``g.rows``, for out-arcs and
in-arcs alike; only the split network is built, once per graph.  Each
(s, t) run starts from a copy of the out-arc list.  In the residual
graph ``live[a]`` is the set of heads of live arcs out of node a, and
``fout[a]`` the set of heads of arcs out of a that carry flow.  Each
phase starts with ``graph._levels``, the one BFS, on ``live``: it keeps
each level as a bitmask and ends at the sinks.  Paths are then traced
back from the sink through the levels, looking at node b only among the
candidates ``level & (in-arcs of b | fout[b])`` that can hold a live arc
into b, and each is augmented as soon as it reaches a source node.  A
node with no candidate left leads nowhere for the rest of the phase,
since augmenting only adds arcs that run back a level, so it is dropped
from its level.  A trace starts from a sink node on the BFS's last
level, and the phase ends when no such sink node has a candidate left:
every shortest path is blocked, and the next BFS finds longer ones.  A
phase augments at least one path, and Even and Tarjan showed that a
unit-capacity network needs only O(sqrt(n)) phases, so a run pays far
fewer BFS passes than units of flow.

Global connectivity reduces to few local runs (Esfahanian-Hakimi):

* vertex: pick a pivot p of minimum degree delta; take the minimum of
  kappa(p, t) over non-neighbors t (stage 1) and kappa(u, w) over
  non-adjacent pairs of neighbors of p (stage 2), seeded with delta and
  the cut N(v0) of v0, the lowest-index vertex of degree delta;
* edge (Matula): the minimum of lambda(0, t) over t in a dominating set
  D that holds 0, seeded with the edge star of a lowest-index
  minimum-degree vertex; |D| - 1 runs instead of n - 1.

Any pivot works.  Take a minimum separator S of a graph that is not
complete.  If S misses p, some component of G - S misses p, and a
vertex t in it is a non-neighbour of p with kappa(p, t) <= |S|.  If S
holds p, S is minimal, so p has a neighbour in each component of G - S;
two of them, u and w, are non-adjacent and kappa(u, w) <= |S|.  Every
local value is at least kappa, so the minimum is kappa.  Only the seed
needs a vertex of degree delta: N(v0) is a separator of size delta, and
seeding with it rather than N(p) keeps the witness the pivot v0 gave
when no pair falls below delta.

The pivot is chosen by the pairs it saves.  Every pivot of degree delta
has a = n - 1 - delta stage-1 pairs and s(p) = C(delta, 2) - e(N(p))
stage-2 pairs, e(N(p)) being the edges among its neighbours.  A move
changes which pair first reaches the least value, so it can cost flows
as well as save pairs: with the fewest pairs as the only aim, Gamma' of
the edge family at k = 14 ran 19 flows instead of 6.  So v0 stays unless
some vertex of degree delta saves more than a pairs; see ``_pivot``.  On
the vertex family v0 lies in the independent class X and a clique vertex
has far fewer stage-2 pairs: at k = 10, Gamma runs 49 flows instead of
173 and Gamma' 22 instead of 138.  The edge family, line graphs and
sparse graphs keep v0.

Matula's lemma makes D enough.  Let lambda < delta and take a minimum
edge cut with sides S and T.  A side S with s vertices has degree sum
at least delta * s, of which at most s(s - 1) stays inside S, so
s(delta - s + 1) <= lambda; for 1 <= s <= delta the left side is at
least delta, so s > delta > lambda.  At most lambda vertices of S
meet the cut, so some vertex of S has its closed neighbourhood inside
S, and D holds it or a neighbor of it: D meets S, and likewise T.  Some
t in D then lies on the side away from 0, and lambda(0, t) = lambda.
D is built greedily on the plain network's bitmasks: 0 first, then the
vertex whose closed neighbourhood covers the most uncovered vertices,
the lowest index on ties.

The witness is the one the loop over every t gave: the seed star when
no run falls below delta, else the cut of the first t in vertex order
with lambda(0, t) = lambda.  A scan over t = 1, 2, ... finds that t.  It
reuses every run on D that finished below its cap or above lambda, and
runs each other t with cap lambda + 1, so a run that reaches lambda
finishes below its cap and holds a maximum flow.  The scan stops at the
latest at the run on D that first reached lambda.

Each run is capped at the best value found so far, and stops as soon
as it reaches the cap, even in the middle of a phase, so only strict
improvements are explored to completion.  A run that finishes below its
cap holds a maximum flow, and its final BFS has reached the source side
of the minimal minimum cut.  That set is the same for every maximum
flow, so the witness does not depend on which augmenting paths were
found or in what order.  The witness is the set of arcs leaving it:
the vertices they enter (split network) or the edges they run along.
Otherwise the witness is the seed cut.  Iteration orders are fixed by
vertex index, so results are deterministic.

Most capped runs only confirm kappa(r, t) >= best, and a fan into
vertices already linked to the root r settles that more cheaply.  Take
a set X whose every x is r, a neighbour of r, or a vertex already shown
to have kappa(r, x) >= best.  If t has best paths to distinct vertices
of X that share only t, then kappa(r, t) >= best.  For let S separate r
from t with |S| < best.  S holds neither r nor t, so some fan path
avoids S, and its end x lies outside S on t's side.  But x is r, or
adjacent to r, or has kappa(r, x) > |S|, so it lies on r's side.  The
edge version has the same proof, with edge-disjoint paths whose ends
need not differ; there X starts as {0} alone, since adjacency does not
bound lambda.

So each root r keeps X = N[r] (for the edge kind, {0}) plus every t
already settled for it: a settled t had kappa(r, t) >= best then, and
best only falls.  Before the run (r, t), ``_fan`` counts the
neighbours of t in X, each the end of a one-edge path, and if they are
fewer than best runs one flow capped at best from t into X.  On the
split network that flow goes from node 2t+1 to the out-nodes 2x+1,
whose one arc in each makes the ends distinct.  Stage 1 has the root
p.  In stage 2 each u in N(p) is its own root, and its X never takes
N[p]: a minimum separator may contain p.  The line-graph route takes
the neighbour count alone.  A certified pair's run is skipped.  That
run would have reached its cap, and such a run changes neither best nor
the witness, so every value and witness is the one that running every
pair gives.
For the edge kind a certified t records (best, None), as a run stopped
at its cap does, so the witness scan reads it unchanged.

Line graphs take a smaller network.  The vertices of L(G) are the edges
of G; vertex i is edge i of ``G.edges()``.  Two non-adjacent vertices
e = uv and f = xy of L(G) are separated by deleting a set C of other
edges exactly when deleting C from G separates {u, v} from {x, y}.  So,
by Menger's theorem for vertex sets, kappa(e, f) in L(G) is the number
of edge-disjoint paths in G from {u, v} to {x, y}: one run on G's plain
network from the node set {u, v} to the node set {x, y}, with G.n
nodes instead of the 2m of L(G)'s split network.  When L(G)'s ``base`` is G,
``vertex_connectivity`` runs its pairs, chosen on L(G) in the same
order and with the same caps, this way.  The witness is unchanged.  The
final BFS of a maximum flow on G reaches R, the least source side over
all minimum cuts.  Every node of R is reached from u or v along edges
inside R, and uv is an edge, so G[R] is connected.  Its edges are then
the least e-side in L(G), and the edges leaving R are the least cut:
the vertices the split network's witness names.

A path system is read off the final flow: from the source, follow the
lowest flow-carrying arc out of each node, map split nodes to their
vertex, and drop closed detours.

``brute_force_connectivity`` is the independent oracle: it enumerates
deletion subsets in increasing size, with a hard ceiling on how many
subsets it will agree to scan.  It shares ``_disconnects`` with the
witness recheck ``verify_disconnecting_set``, and no flow code.
"""
from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .graph import Graph, _bitrows, _bits, _integer, _levels, components

__all__ = [
    "ConnectivityResult",
    "PathSystem",
    "max_vertex_disjoint_paths",
    "max_edge_disjoint_paths",
    "vertex_connectivity",
    "edge_connectivity",
    "brute_force_connectivity",
    "verify_disconnecting_set",
]


@dataclass(frozen=True)
class ConnectivityResult:
    """A connectivity value with a machine-checkable witness.

    ``witness`` is a sorted tuple of vertices (kind="vertex") or of
    (min, max) edge pairs (kind="edge") whose deletion disconnects the
    graph, () when the graph is already disconnected, and None when no
    disconnecting set exists (complete graphs for the vertex kind,
    graphs on fewer than 2 vertices for the edge kind).

    ``route`` names the network a vertex connectivity's flows ran on:
    "split-network" (g's own) or "base-graph" (the plain network of
    ``g.base``).  It is None when no flow was needed and for the edge
    kind, which has one route.  It records how the result was found,
    so results compare equal without it.
    """

    value: int
    witness: object
    kind: str
    route: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class PathSystem:
    """A set of s-t paths produced by a max-flow run.

    mode="vertex": pairwise internally vertex-disjoint.
    mode="edge": pairwise edge-disjoint.
    """

    s: int
    t: int
    mode: str
    paths: tuple

    @property
    def count(self) -> int:
        return len(self.paths)

    def validate(self, g: Graph) -> None:
        """Raise ValueError unless every path is a simple s-t path in g
        and the disjointness promise of ``mode`` holds."""
        for idx, path in enumerate(self.paths):
            if len(path) < 2 or path[0] != self.s or path[-1] != self.t:
                raise ValueError(f"path {idx} does not run from s to t")
            if len(set(path)) != len(path):
                raise ValueError(f"path {idx} repeats a vertex")
            for u, v in zip(path, path[1:]):
                if not g.has_edge(u, v):
                    raise ValueError(f"path {idx} uses the non-edge ({u}, {v})")
        if self.mode == "vertex":
            seen = set()
            for idx, path in enumerate(self.paths):
                for v in path[1:-1]:
                    if v in (self.s, self.t) or v in seen:
                        raise ValueError(
                            f"path {idx} shares interior vertex {v}"
                        )
                    seen.add(v)
        elif self.mode == "edge":
            seen = set()
            for idx, path in enumerate(self.paths):
                for u, v in zip(path, path[1:]):
                    e = (min(u, v), max(u, v))
                    if e in seen:
                        raise ValueError(f"path {idx} reuses edge {e}")
                    seen.add(e)
        else:
            raise ValueError(f"unknown mode {self.mode!r}")


# -- flow networks ---------------------------------------------------------------
#
# Bit b of out[a] is the unit arc a -> b, and arcs_in[b] holds the tails of
# the arcs into b.  Arcs are never antiparallel except the two arcs of an
# edge in the plain network, so cancelling flow on b -> a leaves a -> b
# live exactly when a -> b is an arc.


def _network(g: Graph):
    """(out, arcs_in) of the split network.  The plain network is
    (g.rows, g.rows)."""
    wide = np.zeros((g.n, 2 * g.n), dtype=bool)
    wide[:, 0::2] = g.adj
    into = _bitrows(wide)  # into[u]: the in-nodes 2v of u's neighbors
    out, arcs_in = [], []
    for v in range(g.n):
        out += [1 << (2 * v + 1), into[v]]
        arcs_in += [into[v] << 1, 1 << (2 * v)]
    return out, arcs_in


def _flow(out, arcs_in, src: int, dst: int, cap=None):
    """Unit-capacity max flow from the node set src to the node set dst,
    both bitmasks and disjoint, stopping at cap.

    Returns (value, fout, seen).  fout[a] is the set of heads of arcs out
    of a that carry flow.  When the flow stops below cap it is maximum and
    seen is the set of nodes its final BFS reached; otherwise seen is None.
    """
    live = list(out)
    fout = [0] * len(out)
    value = 0
    while value != cap:
        levels = _levels(live, src, stop=dst)
        if not levels[-1] & dst:
            return value, fout, sum(levels)  # the levels are disjoint
        ends = levels.pop() & dst  # the sink nodes at the end of a shortest path
        # path[j] sits on level len(levels) - j; extend it toward src
        path = [(ends & -ends).bit_length() - 1]
        while value != cap:
            b = path[-1]
            i = len(levels) - len(path)
            if i < 0:  # path reached src: augment along it
                for b, a in zip(path, path[1:]):
                    bbit, low = 1 << b, 1 << a
                    if fout[b] & low:  # cancel a unit on b -> a
                        fout[b] ^= low
                        if not arcs_in[b] & low:
                            live[a] ^= bbit
                    else:
                        fout[a] |= bbit
                        live[a] ^= bbit
                    live[b] |= low
                value += 1
                path = [path[0]]
                continue
            # a live arc into b is an unsaturated arc or a reversed flow arc
            bbit = 1 << b
            cand = levels[i] & (arcs_in[b] | fout[b])
            while cand:
                low = cand & -cand
                if live[low.bit_length() - 1] & bbit:
                    break
                cand ^= low
            if cand:
                path.append(low.bit_length() - 1)
            elif len(path) > 1:  # b leads nowhere for the rest of this phase
                levels[i + 1] ^= bbit
                path.pop()
            else:  # sink node b is blocked; the phase ends with the last one
                ends ^= bbit
                if not ends:
                    break
                path = [(ends & -ends).bit_length() - 1]
    return value, fout, None


def _cut(out, seen: int, split: bool) -> tuple:
    """The witness of a maximum flow: the arcs leaving its residual reached
    set, as the vertices they enter (split) or as edges, sorted."""
    found = set()
    for a in _bits(seen):
        for b in _bits(out[a] & ~seen):
            found.add(b >> 1 if split else (min(a, b), max(a, b)))
    return tuple(sorted(found))


def _paths(fout, src: int, dst: int, value: int, split: bool) -> tuple:
    """``value`` paths read off a flow.  From src, each step takes the
    lowest flow arc out of the current node; split nodes map to their
    vertex and closed detours are dropped."""
    shift = 1 if split else 0
    paths = []
    for _ in range(value):
        a = src
        path = [a >> shift]
        at = {path[0]: 0}
        while a != dst:
            low = fout[a] & -fout[a]
            fout[a] ^= low
            a = low.bit_length() - 1
            v = a >> shift
            if v == path[-1]:
                continue
            if v in at:
                for u in path[at[v] + 1 :]:
                    del at[u]
                del path[at[v] + 1 :]
            else:
                at[v] = len(path)
                path.append(v)
        paths.append(tuple(path))
    return tuple(paths)


def _disjoint_paths(g: Graph, s: int, t: int, split: bool) -> PathSystem:
    _check_endpoints(g, s, t)
    src, dst = (2 * s + 1, 2 * t) if split else (s, t)
    out, arcs_in = _network(g) if split else (g.rows, g.rows)
    value, fout, _ = _flow(out, arcs_in, 1 << src, 1 << dst)
    paths = _paths(fout, src, dst, value, split)
    return PathSystem(s, t, "vertex" if split else "edge", paths)


def max_vertex_disjoint_paths(g: Graph, s: int, t: int) -> PathSystem:
    """A maximum system of internally vertex-disjoint s-t paths."""
    return _disjoint_paths(g, s, t, split=True)


def max_edge_disjoint_paths(g: Graph, s: int, t: int) -> PathSystem:
    """A maximum system of pairwise edge-disjoint s-t paths."""
    return _disjoint_paths(g, s, t, split=False)


def _check_endpoints(g: Graph, s: int, t: int):
    for v in (s, t):
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    if s == t:
        raise ValueError("endpoints must differ")


# -- global connectivity -----------------------------------------------------


def _fan(out, arcs_in, near: int, src: int, sinks: int, best: int) -> bool:
    """Does a fan of ``best`` paths run from the node src into the node
    set sinks?  The fan lemma in the module docstring reads such a fan.

    First counts the sinks in ``near``, the nodes that end a path of one
    edge from src; then runs one flow from src to sinks capped at best.
    """
    if (near & sinks).bit_count() >= best:
        return True
    return _flow(out, arcs_in, src, sinks, cap=best)[0] == best


def _twice_neighbourhood_edges(g: Graph, vs, delta: int) -> list:
    """2 e(N(v)) for each vertex v of vs, all of degree delta: the sum,
    over the neighbours u of v, of the popcount of rows[u] & rows[v]."""
    rows = g.rows
    nbrs = np.nonzero(g.adj[vs])[1].tolist()  # delta neighbours per v
    return [
        sum((rows[u] & rows[v]).bit_count() for u in nbrs[i * delta : (i + 1) * delta])
        for i, v in enumerate(vs)
    ]


def _pivot(g: Graph, degs) -> int:
    """The Esfahanian-Hakimi pivot of g, a graph that is not complete, with
    minimum degree delta: v0, the lowest-index vertex of degree delta,
    unless another vertex of degree delta saves more pairs than stage 1
    holds.

    Every pivot p of degree delta has a = n - 1 - delta stage-1 pairs and
    s(p) = C(delta, 2) - e(N(p)) stage-2 pairs.  When s(v0) <= a, no vertex
    can save more than a and v0 stays with no scan.  Otherwise p is the
    vertex of degree delta with the least s, the lowest index on ties, and
    it replaces v0 only if s(v0) - s(p) > a.
    """
    cand = np.flatnonzero(degs == degs.min()).tolist()
    v0, delta = cand[0], int(degs[cand[0]])
    a = g.n - 1 - delta
    e0 = _twice_neighbourhood_edges(g, [v0], delta)[0] // 2
    if math.comb(delta, 2) - e0 <= a:
        return v0
    twice = _twice_neighbourhood_edges(g, cand, delta)
    best = max(range(len(cand)), key=twice.__getitem__)  # first of the most
    return cand[best] if twice[best] // 2 - e0 > a else v0


def vertex_connectivity(g: Graph) -> ConnectivityResult:
    """Exact vertex connectivity with a minimum separating set.

    Complete graphs (including n <= 1) have no separating set: the value
    is n-1 by convention and the witness is None.  A disconnected graph
    needs no scan of its own: some pair's sink lies in another component,
    so that flow is 0 and its final BFS crosses no arc, giving (0, ()).

    The pairs are those of the pivot p that ``_pivot`` picks: the
    non-neighbours of p, then the non-adjacent pairs of its neighbours.
    Any pivot gives the value, since a minimum separator either misses p,
    and then separates it from a non-neighbour, or holds it, and then
    separates two of its neighbours (proof in the module docstring).  The
    pivot is v0, the lowest-index vertex of minimum degree delta, unless a
    vertex of degree delta has more than n - 1 - delta fewer stage-2
    pairs.  The seed stays delta with the cut N(v0) whatever the pivot,
    so a graph with kappa = delta keeps the witness N(v0).

    When g was built by ``line_graph``, the same pairs run as flows
    between edge ends on the plain network of ``g.base``, with g.base.n
    nodes instead of 2 * g.n, giving the same value and witness.

    A pair whose fan into already-linked vertices proves it at least the
    best value so far runs no flow of its own (see the module docstring).
    """
    n = g.n
    if n <= 1 or g.num_edges == n * (n - 1) // 2:
        return ConnectivityResult(max(n - 1, 0), None, "vertex")
    degs = g.degrees()
    v0 = int(degs.argmin())
    best = int(degs[v0])
    best_cut = tuple(g.neighbors(v0))
    p = _pivot(g, degs)
    adj = g.adj
    pairs = [(p, t) for t in range(n) if t != p and not adj[p, t]]
    pairs.extend((u, w) for u, w in combinations(g.neighbors(p), 2) if not adj[u, w])
    linked = {}  # root -> its X: N[root] and the t settled for it
    if g.base is not None:
        # vertex i of g is edge i of g.base
        nbrs = g.rows
        edges = g.base.edges()
        ends = [1 << u | 1 << v for u, v in edges]
        out = arcs_in = g.base.rows
        for s, t in pairs:
            x = linked.get(s, nbrs[s] | 1 << s)
            linked[s] = x | 1 << t
            if (nbrs[t] & x).bit_count() >= best:
                continue
            value, _, seen = _flow(out, arcs_in, ends[s], ends[t], cap=best)
            if value < best:
                best = value
                cut = set(_cut(out, seen, split=False))
                best_cut = tuple(i for i, e in enumerate(edges) if e in cut)
        return ConnectivityResult(best, best_cut, "vertex", "base-graph")
    out, arcs_in = _network(g)
    for s, t in pairs:
        # X as out-nodes 2x + 1; out[2v + 1] holds the in-nodes of N(v)
        x = linked.get(s, out[2 * s + 1] << 1 | 1 << 2 * s + 1)
        linked[s] = x | 1 << 2 * t + 1
        if _fan(out, arcs_in, out[2 * t + 1] << 1, 1 << 2 * t + 1, x, best):
            continue
        value, _, seen = _flow(out, arcs_in, 1 << 2 * s + 1, 1 << 2 * t, cap=best)
        if value < best:
            best = value
            best_cut = _cut(out, seen, split=True)
    return ConnectivityResult(best, best_cut, "vertex", "split-network")


def _dominating_set(nbrs) -> list:
    """A dominating set of the plain network's vertices, greedily: 0 first,
    then the vertex whose closed neighbourhood covers the most uncovered
    vertices, the lowest index on ties.

    Lazy greedy: the heap holds (-gain, v) with gains scored at some
    earlier pick.  Gains only fall as vertices are covered, so a stored
    key is never above the fresh one.  A popped vertex whose fresh key
    is still at most the heap's least key is therefore the greedy pick,
    ties included; otherwise it goes back with its fresh key.
    """
    n = len(nbrs)
    closed = [m | 1 << v for v, m in enumerate(nbrs)]
    dom, uncovered = [0], ((1 << n) - 1) & ~closed[0]
    heap = [(-(c & uncovered).bit_count(), v) for v, c in enumerate(closed)]
    heapq.heapify(heap)
    while uncovered:
        _, v = heapq.heappop(heap)
        fresh = (-(closed[v] & uncovered).bit_count(), v)
        if heap and fresh > heap[0]:
            heapq.heappush(heap, fresh)
            continue
        dom.append(v)
        uncovered &= ~closed[v]
    return dom


def edge_connectivity(g: Graph) -> ConnectivityResult:
    """Exact edge connectivity with a minimum disconnecting edge set.

    Graphs on fewer than 2 vertices cannot be disconnected by edge
    deletion: the value is 0 and the witness is None.  A disconnected
    graph gives (0, ()) as in ``vertex_connectivity``.

    The value is min(delta, lambda(0, t) over t in a dominating set D
    that holds 0).  A t in D whose fan into 0 and the t before it proves
    lambda(0, t) at least the best value so far runs no flow of its own;
    every other t runs one.  When the value is below delta,
    the witness is the cut of the first t in vertex order with
    lambda(0, t) equal to it, found by a scan whose runs are capped one
    above the value.
    """
    n = g.n
    if n <= 1:
        return ConnectivityResult(0, None, "edge")
    degs = g.degrees()
    v0 = int(degs.argmin())
    best = delta = int(degs[v0])
    out = arcs_in = g.rows
    runs = {}  # t -> (value, seen) of its run on D
    x = 1  # X: 0 and the t settled so far
    for t in _dominating_set(out)[1:]:
        if _fan(out, arcs_in, out[t], 1 << t, x, best):
            runs[t] = best, None  # what a run stopped at cap best records
        else:
            value, _, seen = _flow(out, arcs_in, 1, 1 << t, cap=best)
            runs[t] = value, seen
            best = min(best, value)
        x |= 1 << t
    if best == delta:
        star = sorted((min(v0, u), max(v0, u)) for u in g.neighbors(v0))
        return ConnectivityResult(best, tuple(star), "edge")
    for t in range(1, n):  # stops at the latest at D's first run to reach best
        value, seen = runs.get(t, (best, None))
        if seen is None and value == best:  # not run, or stopped at cap best
            value, _, seen = _flow(out, arcs_in, 1, 1 << t, cap=best + 1)
        if value == best:
            break
    return ConnectivityResult(best, _cut(out, seen, split=False), "edge")


# -- independent oracle ------------------------------------------------------


def brute_force_connectivity(
    g: Graph, mode: str, budget: int, ceiling: int = 2_000_000
):
    """Smallest disconnecting deletion set size, by raw enumeration.

    Scans all vertex subsets (mode="vertex") or edge subsets
    (mode="edge") of size 1..budget in increasing size and lexicographic
    order; returns the first size whose deletion leaves >= 2 components,
    0 if the graph is already disconnected, or None when no subset
    within the budget disconnects.  Refuses to start when the number of
    subsets to scan exceeds ``ceiling``.
    """
    if mode not in ("vertex", "edge"):
        raise ValueError(f"mode must be 'vertex' or 'edge', got {mode!r}")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if components(g).count != 1:
        return 0
    universe = list(range(g.n)) if mode == "vertex" else g.edges()
    budget = min(budget, len(universe))
    total = sum(math.comb(len(universe), j) for j in range(1, budget + 1))
    if total > ceiling:
        raise ValueError(
            f"would scan {total} subsets, over the ceiling of {ceiling}"
        )
    for size in range(1, budget + 1):
        for combo in combinations(universe, size):
            if _disconnects(g.rows, combo):
                return size
    return None


def _disconnects(rows, items) -> bool:
    """``verify_disconnecting_set`` on the graph's bitmask rows, for items
    that are all ints (vertices) or all pairs of ints (edges).  A deleted
    vertex leaves ``alive`` and a deleted edge its two rows; the graph
    split when the search from the least alive vertex misses one."""
    n = len(rows)
    alive = (1 << n) - 1
    if not items or isinstance(items[0], int):
        for v in items:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for n={n}")
            alive &= ~(1 << v)
    else:
        rows = list(rows)
        for u, v in items:
            if not (0 <= u < n and 0 <= v < n) or not rows[u] >> v & 1:
                raise ValueError(f"edge ({u}, {v}) not in graph")
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    return sum(_levels(rows, alive & -alive, alive)) != alive


def _witness_item(x):
    """A witness item as a vertex (an int) or an edge (a pair of ints)."""
    if isinstance(x, numbers.Integral):
        return _integer(x, "witness vertex")
    try:
        u, v = x
    except (TypeError, ValueError):
        raise ValueError(
            f"witness item {x!r} is neither a vertex nor an edge pair"
        ) from None
    return _integer(u, f"edge {x!r} end"), _integer(v, f"edge {x!r} end")


def verify_disconnecting_set(g: Graph, witness) -> bool:
    """Does deleting the witness (vertices, or edge pairs) leave >= 2
    components?  Unknown vertices or absent edges raise ValueError, and
    so do a witness that mixes vertices and edges and an item that is
    neither an integer nor a pair of integers."""
    items = [_witness_item(x) for x in witness]
    for x in items:
        if type(x) is not type(items[0]):
            raise ValueError(f"witness mixes vertices and edges at {x!r}")
    return _disconnects(g.rows, items)
