"""Every name in ``cyberevo.__all__`` and in each submodule's ``__all__`` exists.

A name left in ``__all__`` after its definition is deleted fails only at a
star import, so each one is resolved here.
"""

import importlib
import pkgutil

import pytest

import cyberevo

MODULES = ["cyberevo"] + [
    f"cyberevo.{info.name}"
    for info in pkgutil.iter_modules(cyberevo.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names undefined {missing}"

