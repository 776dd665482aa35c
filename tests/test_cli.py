import argparse
import decimal
import io
import json
import subprocess
import sys
from importlib import resources
from types import SimpleNamespace

import jsonschema
import pytest

from specpairs import (
    Graph,
    SwitchingPlan,
    decode_graph6,
    edge_pair_variant4,
    empty_graph,
    encode_graph6,
    generate_family,
    line_graph,
    vertex_pair,
)
from specpairs import _exactpoly, cli, connectivity, families, spectra
from specpairs import graph as graph_module
from specpairs.cli import _CHECKS, _Metrics, _build_parser, _verify_report, main
from specpairs.families import FAMILY_TAGS, ExpectedMetrics, FamilyInstance


@pytest.fixture(scope="module")
def schema():
    text = resources.files("specpairs").joinpath("report_schema.json").read_text()
    return json.loads(text)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- generate -----------------------------------------------------------------


def test_generate_stdout(capsys, vertex3):
    code, out, err = run_cli(capsys, "generate", "--family", "vertex", "--k", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert decode_graph6(lines[0]) == vertex3.gamma
    assert decode_graph6(lines[1]) == vertex3.gamma_prime


def test_generate_sidecars(tmp_path, capsys, edge6):
    base = str(tmp_path / "pair")
    code, out, err = run_cli(
        capsys, "generate", "--family", "edge", "--k", "6",
        "--seed", "11", "--out", base,
    )
    assert code == 0 and "wrote" in err
    g6 = (tmp_path / "pair.g6").read_text().splitlines()
    assert [decode_graph6(s) for s in g6] == [edge6.gamma, edge6.gamma_prime]
    plan = SwitchingPlan.from_json((tmp_path / "pair.plan.json").read_text())
    assert plan.classes == edge6.plan.classes
    meta = json.loads((tmp_path / "pair.meta.json").read_text())
    assert meta["order"] == 52 and meta["degree"] == 13
    assert meta["seed"] == 11
    assert meta["expected"]["kappa_prime"] == [13, 12]
    assert meta["named"]["x1"] == 5


def test_generate_rejects_bad_parameters(capsys):
    code, out, err = run_cli(capsys, "generate", "--family", "edge", "--k", "7")
    assert code == 2 and "error" in err


# -- verify -------------------------------------------------------------------


def test_verify_text_output(capsys):
    code, out, err = run_cli(capsys, "verify", "--family", "vertex", "--k", "2")
    assert code == 0
    assert "verdict: PASS" in out
    assert "cospectral" in out and "whitney" in out


def test_verify_json_conforms_to_schema(capsys, tmp_path, schema):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--family", "edge-variant4", "--checks", "all",
        "--json", "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report == json.loads(out_file.read_text())
    assert report["verdict"] == "PASS"
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "cospectral", "kappa", "kappa_prime", "whitney", "fiedler", "linegraph",
    ]
    kappa_prime = next(c for c in report["checks"] if c["name"] == "kappa_prime")
    assert kappa_prime["computed"]["gamma"]["value"] == 7
    assert kappa_prime["computed"]["gamma"]["witness_checked"] is True


def test_verify_rejects_unknown_check(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--family", "vertex", "--k", "2", "--checks", "nope"
    )
    assert code == 2 and "unknown check" in err


def test_verify_runs_a_check_named_twice_once(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--family", "vertex", "--k", "2",
        "--checks", "kappa,cospectral,kappa", "--json",
    )
    assert code == 0, err
    assert [c["name"] for c in json.loads(out)["checks"]] == ["kappa", "cospectral"]


def test_verify_reports_failure_for_wrong_claims(vertex3):
    # same pair, deliberately wrong claim: the report must say FAIL
    wrong = FamilyInstance(
        vertex3.tag, vertex3.k, vertex3.gamma, vertex3.gamma_prime,
        vertex3.plan, vertex3.named,
        ExpectedMetrics(order=18, degree=6, kappa_gamma=5),
    )
    report = _verify_report(wrong, ("kappa",), None)
    assert report["verdict"] == "FAIL"
    check = report["checks"][0]
    assert check["status"] == "FAIL"
    assert "claimed 5" in check["detail"]


def test_verify_reports_the_route_of_each_proof(capsys, schema):
    code, out, err = run_cli(
        capsys, "verify", "--family", "vertex", "--k", "2",
        "--checks", "cospectral,kappa,fiedler,linegraph", "--json",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    routes = {c["name"]: c.get("route") for c in report["checks"]}
    assert routes == {
        "cospectral": {"adjacency": "similarity", "laplacian": "identity"},
        "kappa": None,
        "fiedler": {"laplacian": "identity"},
        "linegraph": {"adjacency": "identity"},
    }


def test_fiedler_certifies_one_interval_per_laplacian_polynomial(monkeypatch):
    families_run = (
        [("vertex", k) for k in range(2, 11)]
        + [("edge", k) for k in range(6, 15, 2)]
        + [("edge-variant4", None)]
    )
    intervals, roots = [], [0]
    real_interval = cli.second_smallest_laplacian_eigenvalue
    real_roots = _exactpoly.count_roots_greater

    def interval(g, *args):
        intervals.append(g.n)
        return real_interval(g, *args)

    def counting(*args):
        roots[0] += 1
        return real_roots(*args)

    monkeypatch.setattr(cli, "second_smallest_laplacian_eigenvalue", interval)
    monkeypatch.setattr(_exactpoly, "count_roots_greater", counting)
    reports = []
    for tag, k in families_run:
        fi = generate_family(tag, k)
        report = _verify_report(fi, ("fiedler",), None)
        reports.append((fi, report["checks"][0]["computed"]))
    # every pair is cospectral, so one interval per pair
    assert len(intervals) == len(families_run) and roots[0] == 30
    roots[0] = 0
    for fi, computed in reports:
        for which, g in (("gamma", fi.gamma), ("gamma_prime", fi.gamma_prime)):
            alone = real_interval(g, cli.FIEDLER_TOL)
            assert computed[which]["mu2_lo"] == str(alone.lo)
            assert computed[which]["mu2_hi"] == str(alone.hi)
    assert roots[0] == 60


def test_kappa_of_a_line_family_names_its_flow_route(capsys, schema):
    code, out, err = run_cli(
        capsys, "verify", "--family", "line-of-edge", "--k", "6",
        "--checks", "kappa", "--json",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    (kappa,) = report["checks"]
    assert kappa["route"] == {"gamma": "base-graph", "gamma_prime": "base-graph"}
    assert [kappa["computed"][w]["value"] for w in ("gamma", "gamma_prime")] == [14, 12]
    assert kappa["status"] == "PASS"
    # the flow route is not a spectral route
    bad = dict(report, checks=[dict(kappa, route={"gamma": "identity"})])
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, schema)


def test_a_line_graph_off_its_base_takes_the_split_route():
    line = generate_family("line-of-vertex", 3)
    adj = line.gamma_prime.adj.copy()
    adj[0, 40] = adj[40, 0] = not adj[0, 40]
    tampered = FamilyInstance(
        line.tag, line.k, line.gamma, Graph(line.gamma.n, adj), None, {},
        line.expected, base=line.base,
    )
    check = _CHECKS["kappa"](tampered, _Metrics(tampered))
    assert check["route"] == {"gamma": "base-graph", "gamma_prime": "split-network"}


def test_a_line_family_builds_its_base_pair_once(capsys, monkeypatch):
    built = []
    build, line = families._REGISTRY["vertex"]

    def counted(k):
        built.append(k)
        return build(k)

    monkeypatch.setitem(families._REGISTRY, "line-of-vertex", (counted, line))
    code, out, err = run_cli(capsys, "verify", "--family", "line-of-vertex", "--k", "3")
    assert code == 0, err
    assert built == [3]
    code, out, err = run_cli(
        capsys, "table", "--family", "line-of-vertex", "--kmin", "2", "--kmax", "3"
    )
    assert code == 0, err
    assert built == [3, 2, 3]


def test_a_line_family_converts_each_polynomial_to_text_once(monkeypatch):
    # the two sides share one adjacency and one Laplacian polynomial
    # object; the check takes two digests of each and the adjacency
    # coefficients, but converts each object to text once
    line = generate_family("line-of-vertex", 3)
    metrics = _Metrics(line)
    pair = metrics.spectra
    polys = {id(p): p for p in pair.adjacency + pair.laplacian}
    assert len(polys) == 2
    made = []
    convert = decimal.Decimal

    def counted(c):
        made.append(c)
        return convert(c)

    monkeypatch.setattr(spectra, "decimal", SimpleNamespace(Decimal=counted))
    check = _CHECKS["cospectral"](line, metrics)
    assert check["status"] == "PASS"
    assert made == [c for p in polys.values() for c in p.coeffs]


def test_each_line_graph_is_built_once(capsys, monkeypatch):
    built = []

    def counted(g):
        built.append(g.n)
        return line_graph(g)

    # the names a line graph could be rebuilt through, where they exist
    for module in (families, spectra, connectivity):
        monkeypatch.setattr(module, "line_graph", counted, raising=False)
    code, out, err = run_cli(
        capsys, "verify", "--family", "line-of-edge", "--k", "6",
        "--checks", "cospectral,kappa",
    )
    assert code == 0, err
    assert built == [52, 52]
    built.clear()
    report = _verify_report(edge_pair_variant4(), ("linegraph",), None)
    assert report["verdict"] == "PASS"
    assert built == [36, 36]


def test_verify_refuses_the_line_graph_of_a_line_graph(capsys, monkeypatch):
    built = []

    def counted(g):
        built.append(g.n)
        return line_graph(g)

    monkeypatch.setattr(families, "line_graph", counted)
    code, out, err = run_cli(
        capsys, "verify", "--family", "line-of-edge", "--k", "6",
        "--checks", "linegraph",
    )
    # the instance's own line graphs, and none of theirs
    assert built == [52, 52]
    assert code == 2
    assert "order 4056" in err and "ceiling" in err


def test_the_line_graph_refusal_precedes_every_check(capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran a check before refusing")

    monkeypatch.setattr("specpairs.cli.pair_char_polys", never)
    code, out, err = run_cli(
        capsys, "verify", "--family", "line-of-edge", "--k", "6",
        "--checks", "cospectral,linegraph",
    )
    assert code == 2
    assert "line-of-line-of-edge k=6" in err and "order 4056" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "line-of-edge", "--k", "18", "--checks", "kappa"),
        ("table", "--family", "line-of-edge", "--kmin", "18", "--kmax", "18"),
    ],
)
def test_line_families_past_the_ceiling_are_refused(capsys, monkeypatch, argv):
    def never(*args):
        raise AssertionError("built a line graph past the ceiling")

    monkeypatch.setattr("specpairs.families.line_graph", never)
    monkeypatch.setattr("specpairs.cli.line_graph_family", never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "line-of-edge k=18" in err and "order 4214" in err
    assert "ceiling of order 4000" in err


def test_line_graph_laplacians_past_4300_digits_are_reported(capsys):
    # line-of-vertex k=20 sits under the ceiling, and its Laplacian
    # polynomial has a coefficient of 4543 digits, more than str(int)
    # converts
    code, out, err = run_cli(
        capsys, "verify", "--family", "line-of-vertex", "--k", "20",
        "--checks", "cospectral", "--json",
    )
    assert code == 0, err
    [check] = json.loads(out)["checks"]
    assert check["status"] == "PASS"
    first, second = check["computed"]["digest_laplacian"]
    assert first == second


def test_connectivity_check_info_when_no_claim(variant4):
    check = _CHECKS["kappa"](variant4, _Metrics(variant4))
    assert check["status"] == "INFO"
    assert "no claim" in check["detail"]


# -- table ---------------------------------------------------------------------


def test_table_text(capsys):
    code, out, err = run_cli(
        capsys, "table", "--family", "vertex", "--kmin", "2", "--kmax", "3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert "4/3" in lines[1]  # kappa split at k=2


def test_table_json_schema(capsys, schema):
    code, out, err = run_cli(
        capsys, "table", "--family", "edge", "--kmin", "6", "--kmax", "8", "--json"
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert [r["k"] for r in report["rows"]] == [6, 8]
    assert report["rows"][0]["kappa_prime"] == [13, 12]
    assert all(r["cospectral"] for r in report["rows"])


def test_table_rows_report_the_route(capsys, schema):
    code, out, err = run_cli(
        capsys, "table", "--family", "line-of-vertex", "--kmin", "2",
        "--kmax", "3", "--json",
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert [r["route"] for r in report["rows"]] == [{"adjacency": "identity"}] * 2
    assert all(r["cospectral"] for r in report["rows"])


def test_table_argument_validation(capsys):
    code, out, err = run_cli(capsys, "table", "--family", "vertex")
    assert code == 2
    code, out, err = run_cli(
        capsys, "table", "--family", "vertex", "--kmin", "3", "--kmax", "2"
    )
    assert code == 2


def test_table_refuses_a_range_with_no_even_k(capsys):
    code, out, err = run_cli(
        capsys, "table", "--family", "edge", "--kmin", "7", "--kmax", "7"
    )
    assert code == 2 and out == ""
    assert "--kmin 7 --kmax 7 holds no even k" in err


def test_table_single_instance_family(capsys):
    # one row, whether or not a k range is given
    for extra in ((), ("--kmin", "1", "--kmax", "3")):
        code, out, err = run_cli(
            capsys, "table", "--family", "line-of-edge-variant4", "--json", *extra
        )
        assert code == 0, err
        rows = json.loads(out)["rows"]
        assert len(rows) == 1
        assert rows[0]["order"] == 126 and rows[0]["kappa"] == [7, 6]


def test_family_choices_follow_the_registry():
    verbs = next(
        a for a in _build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for verb in ("generate", "verify", "table"):
        family = next(
            a for a in verbs.choices[verb]._actions if a.dest == "family"
        )
        assert tuple(family.choices) == FAMILY_TAGS


def test_main_parses_with_one_parser_per_process(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("main built a parser of its own")

    monkeypatch.setattr(cli, "_build_parser", rebuilt)
    first = run_cli(capsys, "generate", "--family", "vertex", "--k", "3")
    assert first[0] == 0
    assert run_cli(capsys, "generate", "--family", "vertex", "--k", "3") == first


# -- analyze ---------------------------------------------------------------------


def test_analyze_file(tmp_path, capsys, schema):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\n\n@\n")  # blank lines are skipped
    code, out, err = run_cli(
        capsys, "analyze", "--in", str(path), "--json", "--polys"
    )
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert len(report["graphs"]) == 2
    first = report["graphs"][0]
    assert first["order"] == 3 and first["edges"] == 3
    assert first["vertex_connectivity"]["value"] == 2
    assert first["vertex_connectivity"]["witness"] is None
    assert first["char_poly_adjacency"] == ["-2", "-3", "0", "1"]
    assert first["bipartite"] == {
        "by_coloring": False, "by_spectrum": False, "consistent": True,
    }


def test_analyze_packs_each_graph_at_most_twice(tmp_path, capsys, monkeypatch, vertex3, edge6):
    # one packing for the graph's rows, one for its split flow network
    graphs = [vertex3.gamma, vertex3.gamma_prime, edge6.gamma]
    path = tmp_path / "graphs.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    calls = 0

    def counted(rows):
        nonlocal calls
        calls += 1
        return packed(rows)

    packed = graph_module._bitrows
    for module in (graph_module, connectivity, spectra):
        if hasattr(module, "_bitrows"):
            monkeypatch.setattr(module, "_bitrows", counted)
    code, out, err = run_cli(capsys, "analyze", "--in", str(path), "--json")
    assert code == 0 and len(json.loads(out)["graphs"]) == len(graphs)
    assert calls <= 2 * len(graphs)


def test_analyze_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("A_\n"))
    code, out, err = run_cli(capsys, "analyze", "--in", "-")
    assert code == 0
    assert "n=2" in out


def test_analyze_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("Bw\nB\n")
    code, out, err = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 2
    assert "line 2" in err


def test_analyze_missing_file(capsys):
    code, out, err = run_cli(capsys, "analyze", "--in", "/nonexistent/x.g6")
    assert code == 2


# -- switch ----------------------------------------------------------------------


def test_switch_round_trip(tmp_path, capsys, vertex3):
    graph_file = tmp_path / "g.g6"
    graph_file.write_text(encode_graph6(vertex3.gamma) + "\n")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(vertex3.plan.to_json())
    out_file = tmp_path / "switched.g6"
    code, out, err = run_cli(
        capsys, "switch", "--in", str(graph_file), "--plan", str(plan_file),
        "--out", str(out_file),
    )
    assert code == 0
    assert "cospectral (adjacency, exact): True" in err
    assert decode_graph6(out_file.read_text().strip()) == vertex3.gamma_prime
    # applying the same plan to the result restores the original
    code, out, err = run_cli(
        capsys, "switch", "--in", str(out_file), "--plan", str(plan_file)
    )
    assert code == 0
    assert decode_graph6(out.strip()) == vertex3.gamma


def test_switch_proves_cospectrality_by_certificate(tmp_path, capsys):
    fi = vertex_pair(4)
    graph_file = tmp_path / "g.g6"
    graph_file.write_text(encode_graph6(fi.gamma) + "\n")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(fi.plan.to_json())
    code, out, err = run_cli(
        capsys, "switch", "--in", str(graph_file), "--plan", str(plan_file)
    )
    assert code == 0
    assert "cospectral (adjacency, exact): True" in err
    assert decode_graph6(out.strip()) == fi.gamma_prime


def test_switch_proves_classes_of_coprime_sizes_by_certificate(tmp_path, capsys):
    # classes of the odd primes up to 53 on the empty graph of order 379:
    # no l below 2^63 makes l Q integral, and the certificate needs none
    sizes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    classes, at = [], 0
    for m in sizes:
        classes.append(list(range(at, at + m)))
        at += m
    graph_file = tmp_path / "g.g6"
    graph_file.write_text(encode_graph6(empty_graph(at)) + "\n")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(SwitchingPlan(at, classes).to_json())
    code, out, err = run_cli(
        capsys, "switch", "--in", str(graph_file), "--plan", str(plan_file)
    )
    assert code == 0
    assert "cospectral (adjacency, exact): True" in err


def test_switch_rejects_inadmissible_plan(tmp_path, capsys):
    graph_file = tmp_path / "g.g6"
    graph_file.write_text("DhC\n")  # 5-path
    plan_file = tmp_path / "plan.json"
    plan_file.write_text('{"n": 5, "classes": [[0, 1, 2]]}')
    code, out, err = run_cli(
        capsys, "switch", "--in", str(graph_file), "--plan", str(plan_file)
    )
    assert code == 1
    assert "plan rejected" in err and "free-vertex-count" in err


def test_switch_wants_exactly_one_graph(tmp_path, capsys):
    graph_file = tmp_path / "two.g6"
    graph_file.write_text("Bw\nBw\n")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text('{"n": 3, "classes": []}')
    code, out, err = run_cli(
        capsys, "switch", "--in", str(graph_file), "--plan", str(plan_file)
    )
    assert code == 2 and "exactly one" in err


@pytest.mark.parametrize(
    "order, plan",
    [
        (12, '{"n": 12, "classes": 3}'),
        (12, '{"n": 12, "classes": [3]}'),
        (12, '{"n": null, "classes": []}'),
        (12, '{"n": 12.9, "classes": []}'),
        (12, '{"n": 12, "classes": [[0, 1.5]]}'),
        (1, '{"n": true, "classes": []}'),
        (2, '{"n": -2, "classes": []}'),
    ],
)
def test_switch_malformed_plan_is_usage_error(tmp_path, capsys, order, plan):
    # the orders match what int() would have made of each plan's n, and
    # its absolute value when n is negative
    graph_file = tmp_path / "g.g6"
    graph_file.write_text(encode_graph6(empty_graph(order)) + "\n")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan)
    code, out, err = run_cli(
        capsys, "switch", "--in", str(graph_file), "--plan", str(plan_file)
    )
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_switch_order_mismatch_is_usage_error(tmp_path, capsys):
    graph_file = tmp_path / "g.g6"
    graph_file.write_text("Bw\n")
    plan_file = tmp_path / "plan.json"
    plan_file.write_text('{"n": 7, "classes": [[0]]}')
    code, out, err = run_cli(
        capsys, "switch", "--in", str(graph_file), "--plan", str(plan_file)
    )
    assert code == 2


# -- harness ------------------------------------------------------------------------


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "specpairs", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout and "switch" in proc.stdout
