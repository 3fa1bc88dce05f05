"""Compare a parent tree with a change tree on the ensemble sampler: same bits, then speed.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE [--pairs N] [--games N]

Each tree is a checkout that holds ``src/cyberevo``.  Each side runs in its
own interpreter with ``PYTHONPATH=<tree>/src``, so the two trees are never
imported into one process.

Bits: each side takes one SHA-256 over the ``records_digest`` and the
``repr`` of the summary of ``run_ensemble`` at ``--games`` games (default
100,000), for ``b_a_upper`` 1.0 and ``PAPER_B_A_UPPER``, and over the
uniforms of ``ensemble._uniforms`` on windows that straddle 2**32 and 2**64.
The tool prints both hashes and stops with exit 1 when they differ.

Speed: ``--pairs`` times (default 10), it starts one fresh process per
side, alternating which side starts first.  Each process times
``_uniforms`` over the blocks of the benchmark's ``ensemble`` operation
(rows 0-8,191 and 8,192-9,999 of master seed 1) as the best of
``SPEED_CALLS`` calls.  The tool prints each side's median and quartiles in
ms, the pairs the change won, and the median gain against the parent's
quartile spread.

Exits 0 when the bits are the same, 1 when they differ and 2 when a side
cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Master seeds and (start, stop) windows of the ``_uniforms`` bits panel:
#: each window holds indices on both sides of a change in word count.
UNIFORM_SEEDS = (1, 2**64 - 1)
UNIFORM_WINDOWS = ((2**32 - 4096, 2**32 + 4096), (2**64 - 4096, 2**64 + 4096))

#: The row blocks of the benchmark's 10,000-game ``ensemble`` operation.
SPEED_BLOCKS = ((0, 8192), (8192, 10_000))
#: Timed calls per speed process; the best is taken.
SPEED_CALLS = 50


def side_bits(games: int) -> str:
    """The SHA-256 of the bits panel, on the cyberevo this interpreter imports."""
    from cyberevo import ensemble

    digest = hashlib.sha256()
    for ceiling in (1.0, ensemble.PAPER_B_A_UPPER):
        config = ensemble.SamplerConfig(count=games, b_a_upper=ceiling)
        _, summary = ensemble.run_ensemble(config)
        digest.update(summary.records_digest.encode())
        digest.update(repr(summary).encode())
    for seed in UNIFORM_SEEDS:
        for start, stop in UNIFORM_WINDOWS:
            digest.update(ensemble._uniforms(seed, start, stop).tobytes())
    return digest.hexdigest()


def side_speed() -> float:
    """The best time, in ms, of ``_uniforms`` over the benchmark's blocks."""
    from cyberevo import ensemble

    best = float("inf")
    for _ in range(SPEED_CALLS + 1):  # the first call warms caches and is dropped
        begin = time.perf_counter()
        for start, stop in SPEED_BLOCKS:
            ensemble._uniforms(1, start, stop)
        best = min(best, time.perf_counter() - begin)
    return 1e3 * best


class SideError(Exception):
    """A side's interpreter failed or imported cyberevo from elsewhere."""


def run_side(tree: Path, mode: str, *args: int):
    """Run ``mode`` in a fresh interpreter on ``tree``; returns its result."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--side", mode, *map(str, args)],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise SideError(f"{tree}: {mode} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    source = Path(result["module"]).resolve()
    if (tree / "src").resolve() not in source.parents:
        raise SideError(f"{tree}: imported cyberevo from {source}")
    return result["value"]


def _spread(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--side"]:
        import cyberevo

        value = side_bits(int(argv[2])) if argv[1] == "bits" else side_speed()
        print(json.dumps({"module": cyberevo.__file__, "value": value}))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent tree")
    parser.add_argument("change", type=Path, help="the change tree")
    parser.add_argument("--pairs", type=int, default=10, help="speed pairs (default 10)")
    parser.add_argument("--games", type=int, default=100_000,
                        help="games of each bits run (default 100000)")
    args = parser.parse_args(argv)
    if args.pairs < 0 or args.games < 1:
        parser.error("--pairs must be >= 0 and --games >= 1")
    sides = {"parent": args.parent, "change": args.change}
    try:
        bits = {name: run_side(tree, "bits", args.games) for name, tree in sides.items()}
        for name, value in bits.items():
            print(f"bits {name} {value}")
        if bits["parent"] != bits["change"]:
            print("bits differ")
            return 1
        print("same bits")
        times: dict[str, list[float]] = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in order:
                times[name].append(run_side(sides[name], "speed"))
    except SideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pairs:
        for name, values in times.items():
            q1, median, q3 = _spread(values)
            print(f"_uniforms {name} median {median:.3f} ms (quartiles {q1:.3f}-{q3:.3f}), "
                  f"runs {' '.join(f'{v:.3f}' for v in values)}")
        wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
        q1, parent, q3 = _spread(times["parent"])
        change = statistics.median(times["change"])
        print(f"change faster in {wins} of {args.pairs} pairs; median gain "
              f"{parent - change:.3f} ms ({100 * (parent - change) / parent:+.1f} %) "
              f"against a parent quartile spread of {q3 - q1:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
