"""Command line front end.

Verbs:

* ``generate``: build a family pair; emit graph6 (two lines), a plan
  sidecar, and a metadata sidecar.
* ``verify``: recompute a pair's metrics and compare them with the
  claims attached to the family; reports PASS/FAIL per check.
* ``table``: one summary row per k across a range.
* ``analyze``: metrics for arbitrary graph6 input.
* ``switch``: apply a plan JSON to a graph6 input.

Exit codes: 0 when everything asked for checks out, 1 when a claim
fails to verify (including an inadmissible switching plan), 2 for usage
and parse errors.  JSON emitted by verify/table/analyze conforms to the
bundled ``report_schema.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import partial

from .connectivity import (
    edge_connectivity,
    verify_disconnecting_set,
    vertex_connectivity,
)
from .families import (
    EVEN_K_FAMILIES,
    FAMILY_TAGS,
    SINGLE_INSTANCE_FAMILIES,
    FamilyInstance,
    generate_family,
    line_graph_family,
)
from .graph import Graph6Error, components, decode_graph6, encode_graph6, two_coloring
from .spectra import (
    char_poly_adjacency,
    pair_char_polys,
    second_smallest_laplacian_eigenvalue,
    similarity_certificate,
    spectrum_symmetric,
)
from .switching import InvalidPlanError, SwitchingPlan, switch

FIEDLER_TOL = Fraction(1, 1 << 20)

SIDES = ("gamma", "gamma_prime")


# -- lazy per-pair metric cache ------------------------------------------------


class _Metrics:
    """Spectra, kappa, kappa' and line graphs of a pair, each made on demand.

    ``base`` is the metrics of the pair a line-graph instance was built
    from; its spectra let ``pair_char_polys`` prove the line graphs'
    spectra by identity.
    """

    def __init__(self, fi: FamilyInstance, base=None):
        self.fi = fi
        self.base = base
        self._kappa = {}
        self._kappa_prime = {}
        self._spectra = None
        self._line = None

    def graphs(self):
        return {"gamma": self.fi.gamma, "gamma_prime": self.fi.gamma_prime}

    def spectra(self):
        if self._spectra is None:
            base = self.base.spectra() if self.base is not None else None
            self._spectra = pair_char_polys(self.fi, base_spectra=base)
        return self._spectra

    def kappa(self, which):
        if which not in self._kappa:
            self._kappa[which] = vertex_connectivity(self.graphs()[which])
        return self._kappa[which]

    def kappa_prime(self, which):
        if which not in self._kappa_prime:
            self._kappa_prime[which] = edge_connectivity(self.graphs()[which])
        return self._kappa_prime[which]

    def line(self):
        if self._line is None:
            self._line = _Metrics(line_graph_family(self.fi), base=self)
        return self._line


def _witness_json(w):
    if w is None:
        return None
    return [list(e) if isinstance(e, tuple) else int(e) for e in w]


def _conn_json(g, result):
    w = result.witness
    return {
        "value": result.value,
        "witness": _witness_json(w),
        "witness_checked": w is not None and verify_disconnecting_set(g, w),
    }


# -- the checks ----------------------------------------------------------------
#
# Each check returns (computed, expected, outcome, detail, route); an
# outcome of True is PASS, False is FAIL and None is INFO (nothing to
# assert), and a route of None is left out of the report.


def _cospectral(fi, metrics):
    spectra = metrics.spectra()
    (pa, pa2), (pl, pl2) = spectra.adjacency, spectra.laplacian
    computed = {
        "adjacency": pa == pa2,
        "laplacian": pl == pl2,
        "digest_adjacency": [pa.digest(), pa2.digest()],
        "digest_laplacian": [pl.digest(), pl2.digest()],
    }
    if pa == pa2:
        computed["char_poly_adjacency"] = pa.decimals()
    ok = pa == pa2 and pl == pl2
    detail = "adjacency and laplacian spectra agree" if ok else "spectra differ"
    expected = {"adjacency": True, "laplacian": True}
    return computed, expected, ok, detail, spectra.route


def _connectivity(fi, metrics, kind):
    """``kind`` names both the claim and the metric: kappa or kappa_prime.
    The kappa check of a line-graph instance names the network each
    side's flows ran on as its route."""
    computed = {
        which: _conn_json(g, getattr(metrics, kind)(which))
        for which, g in metrics.graphs().items()
    }
    expected = {which: getattr(fi.expected, f"{kind}_{which}") for which in SIDES}
    problems = [
        f"{which}: computed {computed[which]['value']}, claimed {want}"
        for which, want in expected.items()
        if want is not None and computed[which]["value"] != want
    ] + [
        f"{which}: witness failed its recheck"
        for which, entry in computed.items()
        if entry["witness"] is not None and not entry["witness_checked"]
    ]
    values = "{}/{}".format(*(computed[which]["value"] for which in SIDES))
    route = None
    if kind == "kappa" and fi.base is not None:
        route = {which: metrics.kappa(which).route for which in SIDES}
    if problems:
        return computed, expected, False, "; ".join(problems), route
    if all(want is None for want in expected.values()):
        return computed, expected, None, f"no claim made; computed {values}", route
    return computed, expected, True, f"computed {values} as claimed", route


def _whitney(fi, metrics):
    computed = {}
    for which, g in metrics.graphs().items():
        kv = metrics.kappa(which).value
        ke = metrics.kappa_prime(which).value
        dmin = g.min_degree()
        computed[which] = {
            "kappa": kv,
            "kappa_prime": ke,
            "min_degree": dmin,
            "holds": kv <= ke <= dmin,
        }
    ok = all(v["holds"] for v in computed.values())
    detail = "chain holds on both graphs" if ok else "chain violated"
    expected = {"chain": "kappa <= kappa_prime <= min_degree"}
    return computed, expected, ok, detail, None


def _fiedler(fi, metrics):
    """The interval is certified from the Laplacian polynomial alone, so
    the sides of a pair with equal polynomials share one."""
    computed, intervals = {}, {}
    spectra = metrics.spectra()
    for (which, g), lap in zip(metrics.graphs().items(), spectra.laplacian):
        kv = metrics.kappa(which)
        complete = g.num_edges == g.n * (g.n - 1) // 2
        if kv.value == 0 or complete:
            computed[which] = {"applicable": False}
            continue
        if lap not in intervals:
            intervals[lap] = second_smallest_laplacian_eigenvalue(g, FIEDLER_TOL, lap)
        iv = intervals[lap]
        computed[which] = {
            "applicable": True,
            "mu2_lo": str(iv.lo),
            "mu2_hi": str(iv.hi),
            "kappa": kv.value,
            "within": iv.hi <= kv.value + FIEDLER_TOL,
        }
    applicable = [v for v in computed.values() if v["applicable"]]
    if not applicable:
        ok, detail = None, "no graph applicable (each is complete or disconnected)"
    elif all(v["within"] for v in applicable):
        ok, detail = True, "algebraic connectivity below vertex connectivity"
    else:
        ok, detail = False, "Fiedler bound violated"
    expected = {"bound": "mu2 <= kappa + 2^-20"}
    return computed, expected, ok, detail, {"laplacian": spectra.route["laplacian"]}


def _linegraph(fi, metrics):
    line = metrics.line()
    degree = int(fi.gamma.degrees().max())
    spectra = line.spectra()
    computed = {
        "order": line.fi.gamma.n,
        "degree": int(line.fi.gamma.degrees().max()),
        "cospectral_adjacency": spectra.adjacency[0] == spectra.adjacency[1],
    }
    for which in SIDES:
        base_edge = metrics.kappa_prime(which).value
        line_vertex = line.kappa(which).value
        # equality with the base edge connectivity is guaranteed only
        # when some minimum edge cut is not a vertex star, which a
        # value below the degree forces; otherwise only >= holds
        computed[which] = {
            "base_kappa_prime": base_edge,
            "line_kappa": line_vertex,
            "lower_bound_ok": line_vertex >= base_edge,
            "equality_expected": base_edge < degree,
            "equal": base_edge == line_vertex,
        }
    ok = computed["cospectral_adjacency"] and all(
        computed[w]["lower_bound_ok"]
        and (computed[w]["equal"] or not computed[w]["equality_expected"])
        for w in SIDES
    )
    expected = {
        "bound": "kappa(line) >= kappa_prime(base), "
        "equal when kappa_prime < degree",
        "cospectral_adjacency": True,
    }
    detail = (
        "line graphs cospectral; connectivity transfer as guaranteed"
        if ok
        else "line graph check failed"
    )
    return computed, expected, ok, detail, {"adjacency": spectra.route["adjacency"]}


def _report(name, check):
    """Wrap ``check`` into ``(fi, metrics) -> report entry``, timed."""

    def run(fi, metrics):
        t0 = time.perf_counter()
        computed, expected, outcome, detail, route = check(fi, metrics)
        entry = {
            "name": name,
            "status": {True: "PASS", False: "FAIL", None: "INFO"}[outcome],
            "seconds": time.perf_counter() - t0,
            "computed": computed,
            "expected": expected,
            "detail": detail,
        }
        if route is not None:
            entry["route"] = route
        return entry

    return run


_CHECKS = {
    "cospectral": _report("cospectral", _cospectral),
    "kappa": _report("kappa", partial(_connectivity, kind="kappa")),
    "kappa_prime": _report("kappa_prime", partial(_connectivity, kind="kappa_prime")),
    "whitney": _report("whitney", _whitney),
    "fiedler": _report("fiedler", _fiedler),
    "linegraph": _report("linegraph", _linegraph),
}
CHECK_NAMES = tuple(_CHECKS)
DEFAULT_CHECKS = ("cospectral", "kappa", "kappa_prime", "whitney")


# -- command implementations -----------------------------------------------------


def _parse_checks(text):
    if text is None:
        return DEFAULT_CHECKS
    if text.strip() == "all":
        return CHECK_NAMES
    # a name given twice runs once, at its first place
    names = tuple(dict.fromkeys(s.strip() for s in text.split(",") if s.strip()))
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(
                f"unknown check {name!r}; valid: {', '.join(CHECK_NAMES)} or 'all'"
            )
    if not names:
        raise ValueError("empty check list")
    return names


def _emit(args, report, text_lines):
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    if getattr(args, "json", False):
        print(payload)
    else:
        for line in text_lines:
            print(line)


def cmd_generate(args) -> int:
    fi = generate_family(args.family, args.k)
    g6 = [encode_graph6(fi.gamma), encode_graph6(fi.gamma_prime)]
    if args.out:
        base = args.out
        with open(base + ".g6", "w") as fh:
            fh.write(g6[0] + "\n" + g6[1] + "\n")
        wrote = [base + ".g6"]
        if fi.plan is not None:
            with open(base + ".plan.json", "w") as fh:
                fh.write(fi.plan.to_json() + "\n")
            wrote.append(base + ".plan.json")
        meta = {
            "family": fi.tag,
            "k": fi.k,
            "seed": args.seed,
            "order": fi.gamma.n,
            "degree": int(fi.gamma.degrees().max()) if fi.gamma.n else 0,
            "named": {key: list(v) if isinstance(v, tuple) else v
                      for key, v in fi.named.items()},
            "expected": {
                kind: [getattr(fi.expected, f"{kind}_{w}") for w in SIDES]
                for kind in ("kappa", "kappa_prime")
            },
            "files": {"graphs": base + ".g6",
                      "plan": (base + ".plan.json") if fi.plan else None},
        }
        with open(base + ".meta.json", "w") as fh:
            fh.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        wrote.append(base + ".meta.json")
        print("wrote " + ", ".join(wrote), file=sys.stderr)
    else:
        print(g6[0])
        print(g6[1])
        print(
            f"{fi.tag} k={fi.k}: order {fi.gamma.n}, two graph6 lines on stdout",
            file=sys.stderr,
        )
    return 0


def _verify_report(fi, names, seed):
    metrics = _Metrics(fi)
    if "linegraph" in names:
        metrics.line()  # refuses an oversized pair before any check runs
    checks = [_CHECKS[name](fi, metrics) for name in names]
    verdict = "PASS" if all(c["status"] != "FAIL" for c in checks) else "FAIL"
    return {
        "report": "verify",
        "family": fi.tag,
        "k": fi.k,
        "seed": seed,
        "order": fi.gamma.n,
        "degree": int(fi.gamma.degrees().max()) if fi.gamma.n else 0,
        "graph6": [encode_graph6(fi.gamma), encode_graph6(fi.gamma_prime)],
        "checks": checks,
        "verdict": verdict,
    }


def _verify_text(report):
    lines = [
        "family {family} k={k}: order {order}, degree {degree}".format(**report)
    ]
    lines.append(f"{'CHECK':<12} {'STATUS':<6} {'SECONDS':>8}  DETAIL")
    for c in report["checks"]:
        lines.append(
            f"{c['name']:<12} {c['status']:<6} {c['seconds']:>8.2f}  {c['detail']}"
        )
    lines.append(f"verdict: {report['verdict']}")
    return lines


def cmd_verify(args) -> int:
    names = _parse_checks(args.checks)
    fi = generate_family(args.family, args.k)
    report = _verify_report(fi, names, args.seed)
    _emit(args, report, _verify_text(report))
    return 0 if report["verdict"] == "PASS" else 1


def _table_ks(family, kmin, kmax):
    if family in SINGLE_INSTANCE_FAMILIES:
        return [None]
    if kmin is None or kmax is None:
        raise ValueError("table needs --kmin and --kmax for this family")
    if kmin > kmax:
        raise ValueError("--kmin must not exceed --kmax")
    ks = range(kmin, kmax + 1)
    if family in EVEN_K_FAMILIES:
        ks = [k for k in ks if k % 2 == 0]
        if not ks:
            raise ValueError(f"--kmin {kmin} --kmax {kmax} holds no even k")
    return list(ks)


def cmd_table(args) -> int:
    ks = _table_ks(args.family, args.kmin, args.kmax)
    # every instance is built, and refused if need be, before any row
    instances = [generate_family(args.family, k) for k in ks]
    rows = []
    for fi in instances:
        t0 = time.perf_counter()
        metrics = _Metrics(fi)
        spectra = metrics.spectra()
        pa, pa2 = spectra.adjacency
        row = {
            "k": fi.k,
            "order": fi.gamma.n,
            "degree": int(fi.gamma.degrees().max()),
            "kappa": [metrics.kappa(w).value for w in SIDES],
            "kappa_prime": [metrics.kappa_prime(w).value for w in SIDES],
            "cospectral": pa == pa2,
            "char_poly_digest_adjacency": pa.digest(),
            "route": {"adjacency": spectra.route["adjacency"]},
        }
        row["seconds"] = time.perf_counter() - t0
        rows.append(row)
    report = {
        "report": "table",
        "family": args.family,
        "seed": args.seed,
        "rows": rows,
    }
    lines = [
        f"{'k':>4} {'order':>6} {'degree':>6} {'kappa':>9} {'kappa_prime':>11} "
        f"{'cospectral':>10} {'seconds':>8}"
    ]
    for r in rows:
        kcol = "-" if r["k"] is None else r["k"]
        kappa = "{}/{}".format(*r["kappa"])
        kappa_prime = "{}/{}".format(*r["kappa_prime"])
        lines.append(
            f"{kcol:>4} {r['order']:>6} {r['degree']:>6} {kappa:<9} "
            f"{kappa_prime:<11} {'yes' if r['cospectral'] else 'NO':>10} "
            f"{r['seconds']:>8.2f}"
        )
    _emit(args, report, lines)
    return 0


def _read_graph6_lines(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append((lineno, decode_graph6(line.strip())))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc.message}", exc.offset)
    return out


def cmd_analyze(args) -> int:
    graphs = _read_graph6_lines(args.input)
    entries = []
    mismatch = False
    for idx, (lineno, g) in enumerate(graphs):
        pa = char_poly_adjacency(g)
        by_color = two_coloring(g) is not None
        by_spec = spectrum_symmetric(pa)
        consistent = by_color == by_spec
        mismatch = mismatch or not consistent
        degs = g.degrees() if g.n else None
        entry = {
            "index": idx,
            "order": g.n,
            "edges": g.num_edges,
            "degree_min": int(degs.min()) if g.n else 0,
            "degree_max": int(degs.max()) if g.n else 0,
            "regular": g.is_regular(),
            "components": components(g).count,
            "vertex_connectivity": _conn_json(g, vertex_connectivity(g)),
            "edge_connectivity": _conn_json(g, edge_connectivity(g)),
            "char_poly_digest_adjacency": pa.digest(),
            "bipartite": {
                "by_coloring": by_color,
                "by_spectrum": by_spec,
                "consistent": consistent,
            },
        }
        if args.polys:
            entry["char_poly_adjacency"] = pa.decimals()
        entries.append(entry)
    report = {"report": "analyze", "seed": args.seed, "graphs": entries}
    lines = []
    for e in entries:
        vc, ec = e["vertex_connectivity"], e["edge_connectivity"]
        lines.append(
            f"graph {e['index']}: n={e['order']} m={e['edges']} "
            f"degrees {e['degree_min']}..{e['degree_max']}"
            f"{' regular' if e['regular'] else ''} "
            f"components={e['components']}"
        )
        lines.append(
            f"  kappa={vc['value']} witness={vc['witness']} "
            f"kappa'={ec['value']} witness={ec['witness']}"
        )
        lines.append(
            f"  bipartite={e['bipartite']['by_coloring']} "
            f"(spectral route agrees: {e['bipartite']['consistent']}) "
            f"charpoly sha256 {e['char_poly_digest_adjacency'][:16]}..."
        )
    _emit(args, report, lines)
    return 1 if mismatch else 0


def cmd_switch(args) -> int:
    graphs = _read_graph6_lines(args.input)
    if len(graphs) != 1:
        raise ValueError(
            f"switch expects exactly one graph6 line, found {len(graphs)}"
        )
    g = graphs[0][1]
    with open(args.plan) as fh:
        plan = SwitchingPlan.from_json(fh.read())
    try:
        h = switch(g, plan)
    except InvalidPlanError as exc:
        print("plan rejected:", file=sys.stderr)
        for v in exc.report.violations:
            print(f"  [{v.condition}] {v.detail}", file=sys.stderr)
        return 1
    line = encode_graph6(h)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(line + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(line)
    # h = QgQ for the plan's Q, so the similarity certificate proves the
    # adjacency spectra equal without a charpoly
    same = "adjacency" in similarity_certificate(g, h, plan)
    print(f"cospectral (adjacency, exact): {same}", file=sys.stderr)
    return 0 if same else 1


# -- parser ----------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="specpairs",
        description="Cospectral graph pairs with different connectivity: "
        "generation, verification, and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options that several verbs share, each declared once
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, choices=FAMILY_TAGS)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true", help="JSON report on stdout")
    report.add_argument("--out", default=None, help="also write the JSON report here")
    report.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("generate", parents=[family],
                       help="build a pair; emit graph6 + sidecars")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="basename for .g6/.plan.json/.meta.json sidecars")
    p.add_argument("--seed", type=int, default=None,
                   help="echoed into metadata (construction is deterministic)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", parents=[family, report],
                       help="recompute metrics, compare with claims")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--checks", default=None,
                   help="comma list from: " + ", ".join(CHECK_NAMES) + "; or 'all'"
                   " (default: " + ",".join(DEFAULT_CHECKS) + ")")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", parents=[family, report],
                       help="summary rows across a range of k")
    p.add_argument("--kmin", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("analyze", parents=[report],
                       help="metrics for arbitrary graph6 input")
    p.add_argument("--in", dest="input", required=True,
                   help="graph6 file, one graph per line; '-' for stdin")
    p.add_argument("--polys", action="store_true",
                   help="include full coefficient lists in the JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("switch", help="apply a plan JSON to a graph6 input")
    p.add_argument("--in", dest="input", required=True,
                   help="graph6 file with exactly one line; '-' for stdin")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--out", default=None, help="write the switched graph6 here")
    p.set_defaults(func=cmd_switch)

    return parser


# built once per process: a dropped parser is about 220 KB of cyclic
# garbage that only a full collection frees, so a process that calls
# ``main`` repeatedly would peak wherever the collector happened to run
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # Graph6Error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
