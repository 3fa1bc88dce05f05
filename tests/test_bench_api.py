"""Every ``cyberevo`` name the benchmark scripts import still exists.

The scripts under ``bench/`` import the library at module level and inside
functions.  A deleted or renamed name would break the benchmark with no
other test failing, so the scripts are parsed (not run) and each imported
name is resolved.  ``bench/workload.py --trace 1`` also times layers by
replacing module attributes the CLI calls through; each must still be
called once per run, or its layer would read zero.  It also reads the
step and horizon defaults of the two integrators to count their steps.
It passes ``--workers`` to ``ensemble`` and ``fines`` and ``workers=1`` to
``run_ensemble``; these have no effect, and must stay accepted until the
benchmark stops passing them.
"""

import ast
import importlib
import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

from cyberevo import (
    PAPER_B_A_UPPER,
    SamplerConfig,
    batch_final_states,
    cli,
    fines_study,
    integrate,
    run_ensemble,
)
from cyberevo.output import OutputBundle

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


@pytest.mark.parametrize("function, parameter", [
    (batch_final_states, "step"),
    (batch_final_states, "horizon"),
    (integrate, "step"),
])
def test_signature_defaults_read_by_the_benchmark(function, parameter):
    # bench/workload.py divides these defaults through inspect.signature; a
    # renamed parameter would raise KeyError there and nowhere else.
    default = inspect.signature(function).parameters[parameter].default
    assert type(default) is float


@pytest.mark.parametrize("command, entry", [
    ("ensemble", "run_ensemble"),
    ("fines", "fines_study"),
])
def test_trace_patch_points_are_each_called_once(tmp_path, monkeypatch, capsys,
                                                  command, entry):
    # The names bench/workload.py wraps with spans, wrapped the same way, and
    # the argv shapes it passes.
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for owner, name in ((cli, "load_run_config"), (cli, entry), (OutputBundle, "write")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    config = tmp_path / "fines_config.json"
    config.write_text(json.dumps({"ensemble": {"count": 50, "b_a_upper": PAPER_B_A_UPPER}}))
    argv = {
        "ensemble": ["ensemble", "--count", "50", "--seed", "3", "--workers", "2"],
        "fines": ["fines", "--config", str(config), "--levels", "0.1,0.5",
                  "--workers", "1", "--seed", "3"],
    }[command]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert calls == {"load_run_config": 1, entry: 1, "write": 1}


def test_library_entries_accept_workers():
    # bench/workload.py --trace 1 calls run_ensemble(config, workers=1).
    config = SamplerConfig(count=50, master_seed=3)
    digest = run_ensemble(config)[1].records_digest
    assert run_ensemble(config, workers=1)[1].records_digest == digest
    study = fines_study(50, 3, (0.1, 0.5))
    assert fines_study(50, 3, (0.1, 0.5), workers=1) == study


@pytest.mark.parametrize("argv", [
    ["ensemble", "--count", "300", "--seed", "3"],
    ["fines", "--count", "300", "--seed", "3", "--levels", "0.1,0.5"],
])
def test_workers_flag_writes_identical_artifacts(tmp_path, capsys, argv):
    # bench/workload.py passes --workers 2 to ensemble and --workers 1 to fines.
    written = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert cli.main([*argv, "--workers", workers, "--out", str(out)]) == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert written[0] and written[0] == written[1]
    capsys.readouterr()
    assert cli.main([argv[0], "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--workers ENSEMBLE.WORKERS has no effect" in help_text
    assert cli.main([*argv, "--workers", "0"]) == 2
    assert "workers must be an integer >= 1" in capsys.readouterr().err
