"""Smoke runs of the demos at their shipped sizes and of the README's examples."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("script, outputs, printed", [
    ("phase_portrait.py", ["phase_single_stable.svg", "phase_bistable_saddle.svg"],
     "wrote phase_bistable_saddle.svg (stable: E2, E3)"),
    ("single_game_analysis.py", [], "converged=True at (1.000000, 1.000000)"),
    ("random_game_ensemble.py", [], "analyzed 20000 games (master_seed=1)"),
    ("attacker_fines.py", [], "at level 0.50 the frequency ordering is E3 > E2 > E4"),
    ("finite_population_check.py", [], "mean defence frequency beta = 0.99"),
    ("finite_population_check.py", [], "\n  step   40000  beta="),
])
def test_demo_runs(tmp_path, script, outputs, printed):
    result = _run(script, tmp_path)
    assert result.returncode == 0, result.stderr
    assert printed in result.stdout
    for name in outputs:
        assert (tmp_path / name).read_text().rstrip().endswith("</svg>"), name


def test_readme_python_blocks_run(capsys):
    # In order, in one namespace: later blocks use names earlier ones made,
    # and the last is a fragment that needs the package's names.
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) >= 2
    namespace = {}
    exec("from cyberevo import *", namespace)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert "['E4']" in capsys.readouterr().out
