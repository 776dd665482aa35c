"""The verify check pipeline: outcomes of the connectivity and Fiedler
checks at their edges, and agreement of ``table`` with ``verify``, with
every connectivity call made through ``specpairs.cli``'s own names."""

import json
from collections import Counter

import pytest

import specpairs.cli as cli
from specpairs import complete_graph, encode_graph6, generate_family
from specpairs.cli import _CHECKS, _Metrics, _verify_report, main
from specpairs.families import ExpectedMetrics, FamilyInstance


def _refuse_every_witness(monkeypatch):
    monkeypatch.setattr(cli, "verify_disconnecting_set", lambda g, w: False)


def _without_claims(fi):
    return FamilyInstance(
        fi.tag, fi.k, fi.gamma, fi.gamma_prime, fi.plan, fi.named,
        ExpectedMetrics(order=fi.expected.order, degree=fi.expected.degree),
    )


@pytest.mark.parametrize("kind", ["kappa", "kappa_prime"])
def test_failed_recheck_fails_a_check_that_makes_no_claim(vertex3, kind, monkeypatch):
    # with no claim there is no value to compare, but a witness that
    # does not disconnect its graph is still a fault
    fi = _without_claims(vertex3)
    assert _CHECKS[kind](fi, _Metrics(fi))["status"] == "INFO"
    _refuse_every_witness(monkeypatch)
    check = _CHECKS[kind](fi, _Metrics(fi))
    assert check["status"] == "FAIL"
    assert "witness failed its recheck" in check["detail"]


def test_failed_recheck_fails_edge_variant4_kappa(variant4, monkeypatch):
    # edge-variant4 states kappa' only, so its kappa check makes no claim
    _refuse_every_witness(monkeypatch)
    assert _CHECKS["kappa"](variant4, _Metrics(variant4))["status"] == "FAIL"


def test_failed_recheck_fails_a_check_whose_claim_holds(vertex3, monkeypatch):
    _refuse_every_witness(monkeypatch)
    check = _CHECKS["kappa"](vertex3, _Metrics(vertex3))
    assert check["status"] == "FAIL"
    assert check["detail"].count("witness failed its recheck") == 2


def test_fiedler_says_when_no_graph_is_applicable():
    # K5 is complete on both sides, so the bound mu2 <= kappa is not tested
    k5 = complete_graph(5)
    fi = FamilyInstance(
        "k5-twice", 1, k5, k5, None, {}, ExpectedMetrics(order=5, degree=4)
    )
    check = _CHECKS["fiedler"](fi, _Metrics(fi))
    assert check["status"] == "INFO"
    assert not any(v["applicable"] for v in check["computed"].values())
    assert "no graph applicable" in check["detail"]
    assert "below vertex connectivity" not in check["detail"]


# -- table against verify ------------------------------------------------------


@pytest.fixture
def connectivity_calls(monkeypatch):
    """Count calls to cli's connectivity functions per graph (by graph6)."""
    calls = {"vertex": Counter(), "edge": Counter()}
    for kind in calls:
        attr = f"{kind}_connectivity"
        inner = getattr(cli, attr)

        def counted(g, *args, inner=inner, seen=calls[kind], **kwargs):
            seen[encode_graph6(g)] += 1
            return inner(g, *args, **kwargs)

        monkeypatch.setattr(cli, attr, counted)
    return calls


@pytest.mark.parametrize(
    "family, kmin, kmax", [("vertex", 2, 3), ("edge-variant4", None, None)]
)
def test_table_rows_agree_with_verify(family, kmin, kmax, capsys, connectivity_calls):
    argv = ["table", "--family", family, "--json"]
    if kmin is not None:
        argv += ["--kmin", str(kmin), "--kmax", str(kmax)]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == (1 if kmin is None else kmax - kmin + 1)

    instances = [generate_family(family, row["k"]) for row in rows]
    graphs = [encode_graph6(g) for fi in instances for g in (fi.gamma, fi.gamma_prime)]
    # one vertex and one edge connectivity call per graph of each row
    for kind in ("vertex", "edge"):
        assert connectivity_calls[kind] == Counter(graphs)
        connectivity_calls[kind].clear()

    for row, fi in zip(rows, instances):
        report = _verify_report(fi, ("cospectral", "kappa", "kappa_prime"), None)
        checks = {c["name"]: c["computed"] for c in report["checks"]}
        for key in ("kappa", "kappa_prime"):
            assert row[key] == [checks[key][w]["value"] for w in cli.SIDES]
        spectra = checks["cospectral"]
        assert row["cospectral"] == spectra["adjacency"]
        assert row["char_poly_digest_adjacency"] == spectra["digest_adjacency"][0]
        # and one call per graph for the whole report, shared by its checks
        pair = Counter(encode_graph6(g) for g in (fi.gamma, fi.gamma_prime))
        for kind in ("vertex", "edge"):
            assert connectivity_calls[kind] == pair
            connectivity_calls[kind].clear()


def test_linegraph_check_counts_its_kappa_through_cli(vertex3, connectivity_calls):
    report = _verify_report(vertex3, cli.CHECK_NAMES, None)
    assert report["verdict"] == "PASS"
    line = cli.line_graph_family(vertex3)
    base = [encode_graph6(g) for g in (vertex3.gamma, vertex3.gamma_prime)]
    lines = [encode_graph6(g) for g in (line.gamma, line.gamma_prime)]
    assert connectivity_calls["vertex"] == Counter(base + lines)
    assert connectivity_calls["edge"] == Counter(base)
