"""Spans around the calls one specpairs module makes into another.

The traced run replaces module attributes with wrappers that record a
span (name, start, end, parent, operation) per call; spans stay in
memory until the pass ends.  A layer's self time is the time of its
spans minus the time of their direct children.  Nothing here changes
what the wrapped functions compute.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

# (module the call is made from, attribute called, span name)
PATCHES = (
    ("cli", "generate_family", "families.build"),
    ("cli", "line_graph_family", "families.build"),
    ("families", "switch", "switching.switch"),
    ("families", "line_graph", "graph.line_graph"),
    ("cli", "encode_graph6", "graph.graph6"),
    ("cli", "decode_graph6", "graph.graph6"),
    ("cli", "components", "graph.components"),
    ("connectivity", "components", "graph.components"),
    ("cli", "two_coloring", "graph.two_coloring"),
    ("cli", "char_poly_adjacency", "spectra.charpoly_request"),
    ("cli", "char_poly_laplacian", "spectra.charpoly_request"),
    ("spectra", "char_poly_adjacency", "spectra.charpoly_request"),
    ("spectra", "char_poly_laplacian", "spectra.charpoly_request"),
    ("cli", "cospectral", "spectra.other"),
    ("cli", "spectrum_symmetric", "spectra.other"),
    ("cli", "second_smallest_laplacian_eigenvalue", "spectra.fiedler"),
    # spectra calls these through the module object, so patch them there
    ("_exactpoly", "charpoly", "exactpoly.charpoly"),
    ("_exactpoly", "count_roots_greater", "exactpoly.root_count"),
    ("cli", "vertex_connectivity", "connectivity.vertex"),
    ("cli", "edge_connectivity", "connectivity.edge"),
    ("cli", "verify_disconnecting_set", "connectivity.recheck"),
)

ROOT = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation]
        self.stack = []
        self.operation = 0
        self.charpolys = []  # (matrix, coefficients) of every charpoly call

    def span(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.operation]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        if name == "exactpoly.charpoly":
            # also keep the matrix and result for the bound/actual bits
            def traced(mat, *args, **kwargs):
                out = self.span(name, fn, mat, *args, **kwargs)
                self.charpolys.append((mat, out))
                return out

        else:

            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Patch every listed attribute the program still has."""
        for module, attr, name in PATCHES:
            mod = importlib.import_module("specpairs." + module)
            if hasattr(mod, attr):
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))

    def reset(self):
        self.spans.clear()
        self.charpolys.clear()

    def layer_metrics(self, wall_s: float, report_bytes: int) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        total = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        bound_bits = coeff_bits = 0
        for mat, coeffs in self.charpolys:
            bound_bits += _bound(mat).bit_length()
            coeff_bits += max(abs(c) for c in coeffs).bit_length()
        accounted = sum(total.values())
        return {
            "families.build_s": total["families.build"],
            "families.build_calls": calls["families.build"],
            "switching.switch_s": total["switching.switch"],
            "graph.line_graph_s": total["graph.line_graph"],
            "graph.graph6_s": total["graph.graph6"],
            "graph.components_s": total["graph.components"],
            "graph.two_coloring_s": total["graph.two_coloring"],
            "exactpoly.charpoly_s": total["exactpoly.charpoly"],
            "exactpoly.charpoly_calls": calls["exactpoly.charpoly"],
            "exactpoly.bound_bits": bound_bits,
            "exactpoly.coeff_bits": coeff_bits,
            "exactpoly.coeff_yield": coeff_bits / bound_bits if bound_bits else 0.0,
            "exactpoly.root_count_s": total["exactpoly.root_count"],
            "spectra.fiedler_s": total["spectra.fiedler"],
            "spectra.charpoly_requests": calls["spectra.charpoly_request"],
            "spectra.self_s": total["spectra.charpoly_request"] + total["spectra.other"],
            "connectivity.vertex_s": total["connectivity.vertex"],
            "connectivity.vertex_calls": calls["connectivity.vertex"],
            "connectivity.edge_s": total["connectivity.edge"],
            "connectivity.edge_calls": calls["connectivity.edge"],
            "connectivity.recheck_s": total["connectivity.recheck"],
            "cli.self_s": total[ROOT],
            "cli.report_bytes": report_bytes,
            "trace.wall_s": wall_s,
            "trace.accounted_share": accounted / wall_s if wall_s else 0.0,
        }


def _bound(mat) -> int:
    """The program's coefficient bound for ``mat``: the prime budget it
    must cover.  Falls back to the same Hadamard-type bound, computed
    here, if the program no longer exposes ``_coefficient_bound``."""
    exactpoly = importlib.import_module("specpairs._exactpoly")
    if hasattr(exactpoly, "_coefficient_bound"):
        return exactpoly._coefficient_bound(mat)
    n = mat.shape[0]
    b2 = max(int((row.astype(object) ** 2).sum()) for row in mat) if n else 0
    return max(
        math.isqrt(math.comb(n, m) ** 2 * max(b2, 1) ** m) + 1 for m in range(n + 1)
    )
