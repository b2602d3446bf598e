"""Public names: every ``__all__`` entry resolves and star-import works."""
import importlib
import pkgutil

import pytest

import cutnitsche

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(cutnitsche.__path__)
                    if info.name != "__main__")


@pytest.mark.parametrize("name", ["cutnitsche"] + [f"cutnitsche.{m}" for m in SUBMODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_star_import():
    namespace = {}
    exec("from cutnitsche import *", namespace)
    assert set(cutnitsche.__all__) <= set(namespace)
