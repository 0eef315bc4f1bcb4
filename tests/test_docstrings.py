"""The examples in the package's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import bistellar


def test_docstring_examples():
    # __main__ calls sys.exit when imported
    modules = [bistellar] + [importlib.import_module(f"bistellar.{info.name}")
                             for info in pkgutil.iter_modules(bistellar.__path__)
                             if info.name != "__main__"]
    results = [doctest.testmod(module) for module in modules]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 4
