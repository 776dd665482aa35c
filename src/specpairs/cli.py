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
    char_poly_laplacian,
    cospectral,
    second_smallest_laplacian_eigenvalue,
    spectrum_symmetric,
)
from .switching import InvalidPlanError, SwitchingPlan, switch

CHECK_NAMES = (
    "cospectral",
    "kappa",
    "kappa_prime",
    "whitney",
    "fiedler",
    "linegraph",
)
DEFAULT_CHECKS = ("cospectral", "kappa", "kappa_prime", "whitney")

FIEDLER_TOL = Fraction(1, 1 << 20)


# -- lazy per-pair metric cache ------------------------------------------------


class _Metrics:
    def __init__(self, fi: FamilyInstance):
        self.fi = fi
        self._kappa = {}
        self._kappa_prime = {}

    def graphs(self):
        return {"gamma": self.fi.gamma, "gamma_prime": self.fi.gamma_prime}

    def kappa(self, which):
        if which not in self._kappa:
            self._kappa[which] = vertex_connectivity(self.graphs()[which])
        return self._kappa[which]

    def kappa_prime(self, which):
        if which not in self._kappa_prime:
            self._kappa_prime[which] = edge_connectivity(self.graphs()[which])
        return self._kappa_prime[which]


def _witness_json(w):
    if w is None:
        return None
    return [list(e) if isinstance(e, tuple) else int(e) for e in w]


def _conn_json(g, result):
    checked = False
    if result.witness is not None:
        checked = verify_disconnecting_set(g, result.witness)
    return {
        "value": result.value,
        "witness": _witness_json(result.witness),
        "witness_checked": checked,
    }


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# -- individual checks ---------------------------------------------------------


def _check_cospectral(fi, metrics):
    def run():
        pa = char_poly_adjacency(fi.gamma)
        pa2 = char_poly_adjacency(fi.gamma_prime)
        pl = char_poly_laplacian(fi.gamma)
        pl2 = char_poly_laplacian(fi.gamma_prime)
        computed = {
            "adjacency": pa == pa2,
            "laplacian": pl == pl2,
            "digest_adjacency": [pa.digest(), pa2.digest()],
            "digest_laplacian": [pl.digest(), pl2.digest()],
        }
        if pa == pa2:
            computed["char_poly_adjacency"] = [str(c) for c in pa.coeffs]
        return computed

    computed, secs = _timed(run)
    ok = computed["adjacency"] and computed["laplacian"]
    return {
        "name": "cospectral",
        "status": "PASS" if ok else "FAIL",
        "seconds": secs,
        "computed": computed,
        "expected": {"adjacency": True, "laplacian": True},
        "detail": "adjacency and laplacian spectra agree"
        if ok
        else "spectra differ",
    }


def _check_connectivity(fi, metrics, kind):
    if kind == "kappa":
        getter = metrics.kappa
        expected = {
            "gamma": fi.expected.kappa_gamma,
            "gamma_prime": fi.expected.kappa_gamma_prime,
        }
    else:
        getter = metrics.kappa_prime
        expected = {
            "gamma": fi.expected.kappa_prime_gamma,
            "gamma_prime": fi.expected.kappa_prime_gamma_prime,
        }

    def run():
        return {
            which: _conn_json(metrics.graphs()[which], getter(which))
            for which in ("gamma", "gamma_prime")
        }

    computed, secs = _timed(run)
    stated = {k: v for k, v in expected.items() if v is not None}
    problems = []
    for which, want in stated.items():
        got = computed[which]["value"]
        if got != want:
            problems.append(f"{which}: computed {got}, claimed {want}")
    for which in ("gamma", "gamma_prime"):
        entry = computed[which]
        if entry["witness"] is not None and not entry["witness_checked"]:
            problems.append(f"{which}: witness failed its recheck")
    if not stated:
        status = "INFO"
        detail = "no claim made; computed {}/{}".format(
            computed["gamma"]["value"], computed["gamma_prime"]["value"]
        )
    elif problems:
        status = "FAIL"
        detail = "; ".join(problems)
    else:
        status = "PASS"
        detail = "computed {}/{} as claimed".format(
            computed["gamma"]["value"], computed["gamma_prime"]["value"]
        )
    return {
        "name": kind,
        "status": status,
        "seconds": secs,
        "computed": computed,
        "expected": expected,
        "detail": detail,
    }


def _check_kappa(fi, metrics):
    return _check_connectivity(fi, metrics, "kappa")


def _check_kappa_prime(fi, metrics):
    return _check_connectivity(fi, metrics, "kappa_prime")


def _check_whitney(fi, metrics):
    def run():
        out = {}
        for which, g in metrics.graphs().items():
            kv = metrics.kappa(which).value
            ke = metrics.kappa_prime(which).value
            dmin = g.min_degree()
            out[which] = {
                "kappa": kv,
                "kappa_prime": ke,
                "min_degree": dmin,
                "holds": kv <= ke <= dmin,
            }
        return out

    computed, secs = _timed(run)
    ok = all(v["holds"] for v in computed.values())
    return {
        "name": "whitney",
        "status": "PASS" if ok else "FAIL",
        "seconds": secs,
        "computed": computed,
        "expected": {"chain": "kappa <= kappa_prime <= min_degree"},
        "detail": "chain holds on both graphs" if ok else "chain violated",
    }


def _check_fiedler(fi, metrics):
    def run():
        out = {}
        for which, g in metrics.graphs().items():
            kv = metrics.kappa(which)
            complete = g.num_edges == g.n * (g.n - 1) // 2
            if kv.value == 0 or complete:
                out[which] = {"applicable": False}
                continue
            iv = second_smallest_laplacian_eigenvalue(g, FIEDLER_TOL)
            out[which] = {
                "applicable": True,
                "mu2_lo": str(iv.lo),
                "mu2_hi": str(iv.hi),
                "kappa": kv.value,
                "within": iv.hi <= kv.value + FIEDLER_TOL,
            }
        return out

    computed, secs = _timed(run)
    applicable = [v for v in computed.values() if v.get("applicable")]
    ok = all(v["within"] for v in applicable)
    status = "PASS" if (applicable and ok) else ("INFO" if not applicable else "FAIL")
    return {
        "name": "fiedler",
        "status": status,
        "seconds": secs,
        "computed": computed,
        "expected": {"bound": "mu2 <= kappa + 2^-20"},
        "detail": "algebraic connectivity below vertex connectivity"
        if ok
        else "Fiedler bound violated",
    }


def _check_linegraph(fi, metrics):
    def run():
        lf = line_graph_family(fi)
        degree = int(fi.gamma.degrees().max())
        out = {"order": lf.gamma.n, "degree": int(lf.gamma.degrees().max())}
        out["cospectral_adjacency"] = cospectral(lf.gamma, lf.gamma_prime)
        for which, line_g in (("gamma", lf.gamma), ("gamma_prime", lf.gamma_prime)):
            base_edge = metrics.kappa_prime(which).value
            line_vertex = vertex_connectivity(line_g).value
            # equality with the base edge connectivity is guaranteed only
            # when some minimum edge cut is not a vertex star, which a
            # value below the degree forces; otherwise only >= holds
            forced = base_edge < degree
            out[which] = {
                "base_kappa_prime": base_edge,
                "line_kappa": line_vertex,
                "lower_bound_ok": line_vertex >= base_edge,
                "equality_expected": forced,
                "equal": base_edge == line_vertex,
            }
        return out

    computed, secs = _timed(run)
    ok = computed["cospectral_adjacency"] and all(
        computed[w]["lower_bound_ok"]
        and (computed[w]["equal"] or not computed[w]["equality_expected"])
        for w in ("gamma", "gamma_prime")
    )
    return {
        "name": "linegraph",
        "status": "PASS" if ok else "FAIL",
        "seconds": secs,
        "computed": computed,
        "expected": {
            "bound": "kappa(line) >= kappa_prime(base), "
            "equal when kappa_prime < degree",
            "cospectral_adjacency": True,
        },
        "detail": "line graphs cospectral; connectivity transfer as guaranteed"
        if ok
        else "line graph check failed",
    }


_CHECKS = {
    "cospectral": _check_cospectral,
    "kappa": _check_kappa,
    "kappa_prime": _check_kappa_prime,
    "whitney": _check_whitney,
    "fiedler": _check_fiedler,
    "linegraph": _check_linegraph,
}


# -- command implementations -----------------------------------------------------


def _parse_checks(text):
    if text is None:
        return DEFAULT_CHECKS
    if text.strip() == "all":
        return CHECK_NAMES
    names = tuple(s.strip() for s in text.split(",") if s.strip())
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
                "kappa": [fi.expected.kappa_gamma, fi.expected.kappa_gamma_prime],
                "kappa_prime": [
                    fi.expected.kappa_prime_gamma,
                    fi.expected.kappa_prime_gamma_prime,
                ],
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
        return [k for k in ks if k % 2 == 0]
    return list(ks)


def cmd_table(args) -> int:
    ks = _table_ks(args.family, args.kmin, args.kmax)
    rows = []
    for k in ks:
        t0 = time.perf_counter()
        fi = generate_family(args.family, k)
        pa = char_poly_adjacency(fi.gamma)
        row = {
            "k": fi.k,
            "order": fi.gamma.n,
            "degree": int(fi.gamma.degrees().max()),
            "kappa": [
                vertex_connectivity(fi.gamma).value,
                vertex_connectivity(fi.gamma_prime).value,
            ],
            "kappa_prime": [
                edge_connectivity(fi.gamma).value,
                edge_connectivity(fi.gamma_prime).value,
            ],
            "cospectral": pa == char_poly_adjacency(fi.gamma_prime),
            "char_poly_digest_adjacency": pa.digest(),
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
        lines.append(
            f"{kcol:>4} {r['order']:>6} {r['degree']:>6} "
            f"{r['kappa'][0]}/{r['kappa'][1]:<{max(1, 8 - len(str(r['kappa'][0])))}} "
            f"{r['kappa_prime'][0]}/{r['kappa_prime'][1]:<{max(1, 10 - len(str(r['kappa_prime'][0])))}} "
            f"{'yes' if r['cospectral'] else 'NO':>10} {r['seconds']:>8.2f}"
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
            entry["char_poly_adjacency"] = [str(c) for c in pa.coeffs]
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
    same = cospectral(g, h)
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

    p = sub.add_parser("generate", help="build a pair; emit graph6 + sidecars")
    p.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None,
                   help="basename for .g6/.plan.json/.meta.json sidecars")
    p.add_argument("--seed", type=int, default=None,
                   help="echoed into metadata (construction is deterministic)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="recompute metrics, compare with claims")
    p.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--checks", default=None,
                   help="comma list from: " + ", ".join(CHECK_NAMES) + "; or 'all'"
                   " (default: " + ",".join(DEFAULT_CHECKS) + ")")
    p.add_argument("--json", action="store_true", help="JSON report on stdout")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="summary rows across a range of k")
    p.add_argument("--family", required=True, choices=FAMILY_TAGS)
    p.add_argument("--kmin", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("analyze", help="metrics for arbitrary graph6 input")
    p.add_argument("--in", dest="input", required=True,
                   help="graph6 file, one graph per line; '-' for stdin")
    p.add_argument("--polys", action="store_true",
                   help="include full coefficient lists in the JSON")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("switch", help="apply a plan JSON to a graph6 input")
    p.add_argument("--in", dest="input", required=True,
                   help="graph6 file with exactly one line; '-' for stdin")
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--out", default=None, help="write the switched graph6 here")
    p.set_defaults(func=cmd_switch)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Graph6Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
