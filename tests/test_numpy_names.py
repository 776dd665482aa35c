"""The package declares ``numpy>=1.24``, so it may call no numpy name
that numpy 1.24 lacks.  A run on a newer numpy cannot catch such a call,
so this reads the source instead."""

import ast
from pathlib import Path

import specpairs

# names that numpy 2.x added to its top-level namespace and 1.24 lacks
NUMPY_2_ONLY = {
    "bitwise_count",
    "astype",
    "concat",
    "vecdot",
    "matvec",
    "vecmat",
    "permute_dims",
    "isdtype",
    "unique_values",
    "unique_counts",
    "unique_all",
    "unique_inverse",
    "cumulative_sum",
    "cumulative_prod",
}


def numpy_2_names(source: str) -> list:
    """Each ``np.<name>`` or ``numpy.<name>`` attribute, and each name
    imported from numpy, that numpy 1.24 lacks, as (line, name)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in NUMPY_2_ONLY
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [(node.lineno, a.name) for a in node.names if a.name in NUMPY_2_ONLY]
    return found


def test_the_scan_finds_numpy_2_names():
    source = "import numpy as np\nfrom numpy import vecdot\nx = np.bitwise_count(np.arange(3))\n"
    assert numpy_2_names(source) == [(2, "vecdot"), (3, "bitwise_count")]
    assert numpy_2_names("y = np.unique(x).astype(int)\n") == []


def test_the_package_calls_no_numpy_2_only_name():
    src = Path(specpairs.__file__).parent
    found = {
        path.name: names
        for path in sorted(src.rglob("*.py"))
        if (names := numpy_2_names(path.read_text()))
    }
    assert found == {}
