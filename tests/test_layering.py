"""The game model is the bottom layer that every analysis reads.

``game.py`` holds the parameters, the population state and the algebra, and
imports no sibling module but ``errors``; the equilibria, the
finite-population check and the run configuration read the state from it,
not from the integrators.  ``errors`` alone holds the number rule.
"""

import ast
from pathlib import Path

import pytest

import cyberevo
from cyberevo import dynamics, game

PACKAGE = Path(cyberevo.__file__).parent


def sibling_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, by relative name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.add(node.module or "")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cyberevo"):
            names.add(node.module.partition(".")[2])
        elif isinstance(node, ast.Import):
            names.update(
                alias.name.partition(".")[2]
                for alias in node.names if alias.name.startswith("cyberevo")
            )
    return names


def test_game_imports_only_errors():
    assert sibling_imports("game") <= {"errors"}


@pytest.mark.parametrize("module", ["equilibria", "abm", "config"])
def test_analyses_do_not_import_the_integrators(module):
    assert "dynamics" not in sibling_imports(module)


def test_dynamics_exports_the_game_state():
    assert dynamics.PopulationState is game.PopulationState
    assert cyberevo.PopulationState is game.PopulationState


def test_only_errors_imports_numbers():
    # errors.is_real and errors.is_integer are the package's one number rule;
    # a module that imports numbers is writing a second copy of it.
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module}
            else:
                continue
            if "numbers" in names:
                importers.add(path.stem)
    assert importers == {"errors"}
