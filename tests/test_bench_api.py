"""Every ``cyberevo`` name the benchmark scripts import still exists.

The scripts under ``bench/`` import the library at module level and inside
functions.  A deleted or renamed name would break the benchmark with no
other test failing, so the scripts are parsed (not run) and each imported
name is resolved.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_imports():
    """(script, module, name) of each ``from cyberevo... import name``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "cyberevo":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


IMPORTS = _bench_imports()


def test_workload_imports_are_parsed():
    assert any(script == "workload.py" for script, _, _ in IMPORTS)


@pytest.mark.parametrize("script, module, name", IMPORTS)
def test_bench_import_resolves(script, module, name):
    parent = importlib.import_module(module)
    if not hasattr(parent, name):
        # ``from cyberevo import cli`` names a submodule.
        importlib.import_module(f"{module}.{name}")
