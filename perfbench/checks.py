"""Checks of the program's JSON reports against ``oracle`` facts.

Facts about each graph (characteristic polynomial values mod Q,
connectivity from the paper's formulas or networkx, numpy's Fiedler
estimate, bipartiteness from the generator) are gathered once per run;
the checks below only compare.  Each problem is a (check, message) pair
so that ``mutants`` can show every check rejects a report with one
value altered.
"""

from __future__ import annotations

import copy
from fractions import Fraction

import numpy as np

import oracle

FIEDLER_TOL = 1e-9


# -- facts -------------------------------------------------------------------


def graph_facts(adj, kappa, kappa_prime=None, fiedler=False, sachs_base=None):
    """What the oracle says about one graph."""
    facts = {
        "adj": adj,
        "order": adj.shape[0],
        "degree": int(adj.sum(axis=1).max()),
        "regular": bool(adj.sum(axis=1).min() == adj.sum(axis=1).max()),
        "values": [oracle.charpoly_at(adj, x) for x in oracle.POINTS],
        "kappa": kappa,
        "kappa_prime": kappa_prime,
    }
    if fiedler:
        facts["fiedler"] = oracle.fiedler_estimate(adj)
    if sachs_base is not None:
        # Sachs: p_L(G)(x) = (x + 2)^(m - n) p_G(x - d + 2) for d-regular G
        n, m = sachs_base.shape[0], int(sachs_base.sum()) // 2
        d = int(sachs_base.sum(axis=1).max())
        facts["sachs"] = [
            pow(x + 2, m - n, oracle.Q)
            * oracle.charpoly_at(sachs_base, (x - d + 2) % oracle.Q)
            % oracle.Q
            for x in oracle.POINTS
        ]
    return facts


def paper_claims(family, k):
    """(order, degree, kappa pair, kappa' pair) the paper states; None
    where it states nothing, which networkx then supplies."""
    if family == "vertex":
        # kappa(gamma) = 2k = degree forces kappa'(gamma) = 2k (Whitney)
        return 6 * k, 2 * k, (2 * k, k + 1), (2 * k, None)
    if family == "edge":
        return 10 * k - 8, 3 * k - 5, (3, 3), (3 * k - 5, 3 * k - 6)
    if family == "edge-variant4":
        return 36, 7, (None, None), (7, 6)
    raise ValueError(family)


# -- verify reports --------------------------------------------------------------


def _poly_problems(coeffs, digests, facts_list, degree=None, lap_digests=None):
    out = []
    want = oracle.digest(coeffs)
    for got in digests:
        if got != want:
            out.append(("digest", "digest does not match the coefficients"))
    for facts in facts_list:
        if len(coeffs) != facts["order"] + 1 or coeffs[-1] != 1:
            out.append(("charpoly", "wrong degree or leading coefficient"))
            continue
        got = [oracle.poly_at(coeffs, x) for x in oracle.POINTS]
        if got != facts["values"]:
            out.append(("charpoly", "differs from det(xI - A) mod Q"))
        if "sachs" in facts and got != facts["sachs"]:
            out.append(("sachs", "breaks Sachs' identity with the base graph"))
    if lap_digests is not None:
        lap = oracle.digest(oracle.laplacian_from_adjacency(coeffs, degree))
        for got in lap_digests:
            if got != lap:
                out.append(("laplacian", "digest is not that of (-1)^n p_A(d - x)"))
    return out


def _witness_problems(adj, entry, kind):
    value, witness = entry["value"], entry["witness"]
    if witness is None:
        return [("witness", "no witness")]
    out = []
    if len(witness) != value:
        out.append(("witness", f"{len(witness)} elements for value {value}"))
    if kind == "vertex":
        stays = oracle.connected(adj, drop_vertices=witness)
    else:
        if not all(adj[u, v] for u, v in witness):
            return out + [("witness", "names a non-edge")]
        stays = oracle.connected(adj, drop_edges=witness)
    if stays or not entry["witness_checked"]:
        out.append(("witness", "deleting it leaves the graph connected"))
    return out


def _connectivity_problems(check, facts, key):
    out = []
    kind = "vertex" if key == "kappa" else "edge"
    for which, f in facts.items():
        entry = check["computed"][which]
        if entry["value"] != f[key]:
            out.append(("kappa", f"{which} {key} {entry['value']}, oracle {f[key]}"))
        out += _witness_problems(f["adj"], entry, kind)
    return out


def _whitney_problems(check, by_name, facts):
    out = []
    for which, f in facts.items():
        e = check["computed"][which]
        kv = by_name["kappa"]["computed"][which]["value"]
        ke = by_name["kappa_prime"]["computed"][which]["value"]
        if (e["kappa"], e["kappa_prime"], e["min_degree"]) != (kv, ke, f["degree"]):
            out.append(("whitney", f"{which}: values differ from the other checks"))
        if not (e["holds"] and kv <= ke <= f["degree"]):
            out.append(("whitney", f"{which}: chain does not hold"))
    return out


def _fiedler_problems(check, by_name, facts):
    out = []
    for which, f in facts.items():
        e = check["computed"][which]
        lo, hi = Fraction(e["mu2_lo"]), Fraction(e["mu2_hi"])
        est = f["fiedler"]
        if not (float(lo) - FIEDLER_TOL <= est <= float(hi) + FIEDLER_TOL):
            out.append(("fiedler", f"{which}: [{lo}, {hi}] misses numpy's {est}"))
        if hi - lo > Fraction(1, 1 << 20):
            out.append(("fiedler", f"{which}: enclosure wider than 2^-20"))
        kv = by_name["kappa"]["computed"][which]["value"]
        if e["within"] != (hi <= kv + Fraction(1, 1 << 20)) or not e["within"]:
            out.append(("fiedler", f"{which}: bound mu2 <= kappa not shown"))
    return out


def verify_problems(report, spec, facts):
    """Problems of one ``verify`` report.  ``spec`` holds family, k,
    order, degree, checks; ``facts`` maps gamma/gamma_prime to graph_facts."""
    out = []
    head = (report["family"], report["k"], report["order"], report["degree"])
    want = (spec["family"], spec["k"], spec["order"], spec["degree"])
    if head != want or report["verdict"] != "PASS":
        out.append(("shape", f"header {head} {report['verdict']}, expected {want} PASS"))
    for which, g6 in zip(("gamma", "gamma_prime"), report["graph6"]):
        f = facts[which]
        if not np.array_equal(oracle.decode_graph6(g6), f["adj"]):
            out.append(("shape", f"{which} is not the graph the oracle checked"))
        if (f["order"], f["degree"], f["regular"]) != (spec["order"], spec["degree"], True):
            out.append(("shape", f"{which} is not {spec['degree']}-regular "
                                 f"of order {spec['order']}"))
    by_name = {c["name"]: c for c in report["checks"]}
    if list(by_name) != spec["checks"]:
        out.append(("shape", f"checks {list(by_name)}"))
        return out
    for name, check in by_name.items():
        # INFO: the program makes no claim; the values are still checked
        if check["status"] not in ("PASS", "INFO"):
            out.append((name, f"status {check['status']}"))
        if name == "cospectral":
            c = check["computed"]
            if not (c["adjacency"] and c["laplacian"]):
                out.append(("charpoly", "spectra reported different"))
                continue
            coeffs = [int(x) for x in c["char_poly_adjacency"]]
            out += _poly_problems(
                coeffs, c["digest_adjacency"], list(facts.values()),
                spec["degree"], c["digest_laplacian"])
        elif name in ("kappa", "kappa_prime"):
            out += _connectivity_problems(check, facts, name)
        elif name == "whitney":
            out += _whitney_problems(check, by_name, facts)
        elif name == "fiedler":
            out += _fiedler_problems(check, by_name, facts)
    return out


# -- analyze reports ---------------------------------------------------------


def analyze_problems(report, facts_list):
    """Problems of one ``analyze --polys`` report; facts_list holds one
    graph_facts per input line, with ``bipartite`` from the generator."""
    out = []
    entries = report["graphs"]
    if len(entries) != len(facts_list):
        return [("shape", f"{len(entries)} graphs for {len(facts_list)} inputs")]
    for e, f in zip(entries, facts_list):
        adj = f["adj"]
        degs = adj.sum(axis=1)
        shape = (e["order"], e["edges"], e["degree_min"], e["degree_max"],
                 e["regular"], e["components"])
        want = (f["order"], int(degs.sum()) // 2, int(degs.min()), int(degs.max()),
                bool(degs.min() == degs.max()), 1)
        if shape != want:
            out.append(("shape", f"graph {e['index']}: {shape}, expected {want}"))
        for key, name, kind in (("kappa", "vertex_connectivity", "vertex"),
                                ("kappa_prime", "edge_connectivity", "edge")):
            entry = e[name]
            if entry["value"] != f[key]:
                out.append(("kappa", f"graph {e['index']}: {key} {entry['value']}, "
                                     f"networkx {f[key]}"))
            out += _witness_problems(adj, entry, kind)
        coeffs = [int(x) for x in e["char_poly_adjacency"]]
        out += _poly_problems(coeffs, [e["char_poly_digest_adjacency"]], [f])
        b = e["bipartite"]
        flags = (b["by_coloring"], b["by_spectrum"], b["consistent"])
        if flags != (f["bipartite"], f["bipartite"], True):
            out.append(("bipartite", f"graph {e['index']}: {flags}, "
                                     f"generated bipartite={f['bipartite']}"))
    return out


# -- mutants: every check must reject a report with one value altered -------------


def _broken_vertex_cut(adj, witness):
    """``witness`` with its first vertex swapped for one that leaves the
    graph connected."""
    for v in range(adj.shape[0]):
        cut = [v] + list(witness[1:])
        if v not in witness and oracle.connected(adj, drop_vertices=cut):
            return cut
    raise ValueError("every swap still separates")


def _broken_edge_cut(adj, witness):
    for u, v in zip(*np.nonzero(np.triu(adj, 1))):
        edge = [int(u), int(v)]
        cut = [edge] + list(witness[1:])
        if edge not in witness and oracle.connected(adj, drop_edges=cut):
            return cut
    raise ValueError("every swap still separates")


def _bump_coefficient(c, coeff_key, digest_keys):
    """Alter one coefficient and re-digest, so only evaluation can tell."""
    coeffs = [int(x) for x in c[coeff_key]]
    coeffs[1] += 1
    c[coeff_key] = [str(x) for x in coeffs]
    d = oracle.digest(coeffs)
    for key in digest_keys:
        c[key] = [d] * len(c[key]) if isinstance(c[key], list) else d


def verify_mutants(report, adj, sachs=False):
    """(label, checks that must object, mutated report) for a verify
    report; ``adj`` is gamma_prime's adjacency."""
    names = [c["name"] for c in report["checks"]]
    out = []

    def mutant(label, checks, fn):
        r = copy.deepcopy(report)
        fn({c["name"]: c for c in r["checks"]})
        out.append((label, checks, r))

    def digest(b):
        b["cospectral"]["computed"]["digest_adjacency"][0] = "0" * 64

    def coefficient(b):
        _bump_coefficient(b["cospectral"]["computed"], "char_poly_adjacency",
                          ["digest_adjacency"])

    def laplacian(b):
        b["cospectral"]["computed"]["digest_laplacian"][1] = "f" * 64

    def kappa(b):
        b["kappa"]["computed"]["gamma_prime"]["value"] += 1

    def vertex_witness(b):
        e = b["kappa"]["computed"]["gamma_prime"]
        e["witness"] = _broken_vertex_cut(adj, e["witness"])

    mutant("digest altered", ("digest",), digest)
    mutant("one coefficient altered", ("charpoly", "sachs") if sachs else ("charpoly",),
           coefficient)
    mutant("laplacian digest altered", ("laplacian",), laplacian)
    mutant("kappa altered", ("kappa",), kappa)
    mutant("witness vertex altered", ("witness",), vertex_witness)
    if "kappa_prime" in names:
        def edge_witness(b):
            e = b["kappa_prime"]["computed"]["gamma_prime"]
            e["witness"] = _broken_edge_cut(adj, e["witness"])

        mutant("witness edge altered", ("witness",), edge_witness)
    if "whitney" in names:
        def whitney(b):
            b["whitney"]["computed"]["gamma"]["min_degree"] += 1

        mutant("whitney degree altered", ("whitney",), whitney)
    if "fiedler" in names:
        def fiedler(b):
            e = b["fiedler"]["computed"]["gamma"]
            e["mu2_lo"] = str(Fraction(e["mu2_lo"]) + 1)
            e["mu2_hi"] = str(Fraction(e["mu2_hi"]) + 1)

        mutant("fiedler enclosure shifted", ("fiedler",), fiedler)
    return out


def analyze_mutants(report, adj):
    """Mutants of an analyze report, altering graph 0 (adjacency ``adj``)."""
    out = []

    def mutant(label, checks, fn):
        r = copy.deepcopy(report)
        fn(r["graphs"][0])
        out.append((label, checks, r))

    def digest(e):
        e["char_poly_digest_adjacency"] = "0" * 64

    def coefficient(e):
        _bump_coefficient(e, "char_poly_adjacency", ["char_poly_digest_adjacency"])

    def kappa(e):
        e["edge_connectivity"]["value"] += 1

    def vertex_witness(e):
        w = e["vertex_connectivity"]["witness"]
        e["vertex_connectivity"]["witness"] = _broken_vertex_cut(adj, w)

    def edge_witness(e):
        w = e["edge_connectivity"]["witness"]
        e["edge_connectivity"]["witness"] = _broken_edge_cut(adj, w)

    def bipartite(e):
        b = e["bipartite"]
        b["by_coloring"] = b["by_spectrum"] = not b["by_coloring"]

    mutant("digest altered", ("digest",), digest)
    mutant("one coefficient altered", ("charpoly",), coefficient)
    mutant("kappa' altered", ("kappa",), kappa)
    mutant("witness vertex altered", ("witness",), vertex_witness)
    mutant("witness edge altered", ("witness",), edge_witness)
    mutant("bipartite flag flipped", ("bipartite",), bipartite)
    return out
