"""Steadiness of the benchmark: repeated runs per workload.

    python3 bench/steady.py [--workload NAME ...] [--runs 10]

Runs ``run.py`` at BENCHMARK.json's ``run_seconds`` once per seed (1, 2,
..., ``runs``) for each workload and prints, for every end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) as a
share of the median, and that spread against the metric's bound in
BENCHMARK.json.  A spread must stay below a third of its bound; ``setup_s``
is shown but not held to that.  The share of failed operations must be
identical in every run.  The last line is a JSON object with every value.
Exits 1 when a spread or the failed share breaks these rules.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, load_spec  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark steadiness")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("--runs must be >= 4 for quartiles")
    spec = load_spec()
    metrics = spec["end_to_end"]
    steady = True
    raw = {}
    for name in args.workload or WORKLOADS:
        values = {m["name"]: [] for m in metrics}
        shares = set()
        walls = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed)]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            if proc.returncode != 0:
                print(f"[{name}] seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add((result["failed"], result["attempted"]))
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        ratios = {f / a for f, a in shares}
        print(f"[{name}] {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed/attempted {sorted(shares)}")
        if len(ratios) != 1:
            steady = False
            print("  failed share differs between runs")
        for m in metrics:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            gated = m["name"] != "setup_s"
            ok = spread < m["bound"] / 3 or not gated
            steady &= ok
            print(f"  {m['name']:<14} median {med:12.6g} {m['unit']:<8} q1 {q1:12.6g} "
                  f"q3 {q3:12.6g} spread {spread:7.2%} bound {m['bound']:.0%} "
                  f"{'ok' if ok else 'TOO WIDE'}{'' if gated else ' (not gated)'}")
        raw[name] = {"values": values, "failed_attempted": sorted(shares), "wall_s": walls}
    print(json.dumps(raw))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
