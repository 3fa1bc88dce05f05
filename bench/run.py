"""Benchmark runner for cyberevo.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

NAME is ensemble, fines, basin, trajectories or abm.

Run from the repository root or anywhere else: paths are taken from this
file's location.  The program is imported from ``src/`` of the same tree,
so nothing needs to be installed.  Each workload runs in fresh interpreters
(``workload.py``): eight that only set up, then one that sets up and
measures.  ``setup_s`` is the median, over those nine, of the time from
starting the interpreter to its first timed call.

Prints each metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json and ``--trace 1`` the
per-layer ones.  Exits 1 when an output check fails and 2 when the
benchmark cannot run (for example, when ``src/cyberevo`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ensemble", "fines", "basin", "trajectories", "abm")
SETUP_SAMPLES = 9
#: A run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run to its end."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _child(args: list[str], deadline: float) -> dict:
    """Run ``workload.py`` in a fresh interpreter; returns its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload.py {' '.join(args)} ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"workload.py {' '.join(args)} exited with {proc.returncode}:\n{err}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"workload.py {' '.join(args)} printed no result:\n{err}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 doctor: str | None, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    out = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed), "--out", str(out)]
    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            spawned = time.monotonic()
            child = _child([*common, "--setup-only"], deadline)
            setups.append((child["ready_at"] - spawned) * child["setup_scale"])
        spawned = time.monotonic()
        extra = ["--doctor", doctor] if doctor else []
        child = _child([*common, "--seconds", str(seconds), "--trace", str(trace), *extra],
                       deadline)
        setups.append((child["ready_at"] - spawned) * child["setup_scale"])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    measured = dict(child["metrics"], setup_s=statistics.median(setups))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    # A layer the workload does not call reports 0.
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in listed
    }
    return {
        "correct": child["correct"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
        "failures": child["failures"],
        "scale": child["scale"],
    }


def report(name: str, result: dict) -> None:
    print(f"[{name}] correct={str(result['correct']).lower()} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<46} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  (times scaled to the reference speed: the run's median factor was "
          f"{result['scale']:.3f})")
    for failure in result["failures"]:
        print(f"  CHECK FAILED: {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cyberevo benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--doctor", metavar="KIND",
                        help="corrupt an output before the checks: count, welfare, "
                             "fines-order or corner (self-tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "cyberevo" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, args.trace, args.doctor, spec)
            report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results.values():
        del result["failures"], result["scale"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
