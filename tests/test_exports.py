import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import specpairs
from specpairs import connectivity, families, graph, spectra, switching

# the modules whose export lists the package re-exports
MODULES = (connectivity, families, graph, spectra, switching)

# the package's exports when it restated each name itself; none may leave
EXPORTED_BEFORE = """
    ComponentPartition ConnectivityResult ExpectedMetrics FAMILY_TAGS
    FamilyInstance Graph Graph6Error IntPolynomial InvalidPlanError
    PairSpectra PathSystem RationalInterval SwitchingPlan ValidationReport
    Violation base_circulant_G berkowitz_char_poly brute_force_connectivity
    char_poly_adjacency char_poly_laplacian circulant complete_bipartite
    complete_graph components cospectral cycle_graph decode_graph6
    delete_edges delete_vertices disjoint_union edge_connectivity edge_pair
    edge_pair_variant4 empty_graph encode_graph6 generate_family
    laplacian_matrix line_graph line_graph_family max_edge_disjoint_paths
    max_vertex_disjoint_paths pair_char_polys paper_witnesses path_graph
    second_smallest_laplacian_eigenvalue similarity_certificate
    spectrum_symmetric switch two_coloring validate_plan
    verify_disconnecting_set vertex_connectivity vertex_pair
    zero_root_multiplicity
""".split()

# the package and every submodule that declares an export list; __main__
# runs the command line on import
EXPORTING = ["specpairs"] + [
    name
    for name in (f"specpairs.{m.name}" for m in pkgutil.iter_modules(specpairs.__path__))
    if name != "specpairs.__main__"
    and hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", EXPORTING)
def test_star_import_resolves_every_exported_name(name):
    # a star import raises AttributeError on a listed name the module lacks
    exec(f"from {name} import *", {})


def owner(name):
    return next(m for m in MODULES if name in m.__all__)


def test_earlier_exports_stay_their_modules_objects():
    assert len(EXPORTED_BEFORE) == 54
    for name in EXPORTED_BEFORE:
        assert name in specpairs.__all__
        assert getattr(specpairs, name) is getattr(owner(name), name)


def test_package_exports_exactly_its_modules_lists():
    assert sorted(specpairs.__all__) == sorted(n for m in MODULES for n in m.__all__)
    for name in specpairs.__all__:
        assert getattr(specpairs, name) is getattr(owner(name), name)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_exports_are_one_literal_list(module):
    # the package's list is built from these, so each must stay readable
    # without running the module: assigned once, a list of string literals
    tree = ast.parse(Path(module.__file__).read_text())
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "__all__"]
    assert len(names) == 1
    (stmt,) = [s for s in tree.body if isinstance(s, ast.Assign) and names[0] in s.targets]
    assert isinstance(stmt.value, ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in stmt.value.elts)
    assert ast.literal_eval(stmt.value) == module.__all__
