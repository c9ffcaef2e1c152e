"""The package's public names: each module's ``__all__`` resolves, and no retired name is left to import."""

import importlib
import pkgutil

import pytest

import dphist

MODULES = ["dphist", *(f"dphist.{info.name}" for info in pkgutil.iter_modules(dphist.__path__))]
# one-item forms the package once exported beside the form the program runs
RETIRED = ["split_objective", "get_split_point", "UnsplittableAxisError", "laplace_sample", "flatten", "WARN_NO_REMAIN"]


@pytest.mark.parametrize("module", MODULES)
def test_exports_resolve_and_retired_names_are_gone(module):
    namespace = {}
    exec(f"from {module} import *", namespace)  # raises AttributeError for an __all__ name the module lacks
    loaded = importlib.import_module(module)
    assert set(getattr(loaded, "__all__", [])) <= namespace.keys()
    assert [name for name in RETIRED if hasattr(loaded, name)] == []
