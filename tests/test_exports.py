import importlib
import pkgutil

import pytest

import specpairs

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
