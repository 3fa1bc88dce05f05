"""Self-tests of the benchmark's output checks.

    python3 bench/selftest.py

1. The checks' premise: the benchmark's own rebuild of the sampler gives
   bit-identical games to ``cyberevo.ensemble.sample_game``.
2. Each corruption below is applied to the CLI's artifacts before they are
   checked; ``run.py`` must then exit 1, report ``"correct": false`` and
   name the corrupted quantity:

   - count        one game moved into fig6_counts' one-stable row;
   - welfare      mean welfare of (Defence, NoAttack) raised by 0.01;
   - fines-order  the two fine levels' artifacts swapped;
   - corner       one trajectory's final state moved onto a corner that is
                  not stable, and one basin start's onto a source corner.

Takes about 30 seconds.  Exits 1 when a self-test fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CASES = (
    ("ensemble", "count", "fig6_counts"),
    ("ensemble", "welfare", "mean welfare Defence,NoAttack"),
    ("fines", "fines-order", "must not shrink"),
    ("trajectories", "corner", "integrate settled on a non-stable corner"),
    ("basin", "corner", "batch_final_states settled on a source corner"),
)


def sampler_premise() -> list[str]:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import checks
    from cyberevo.ensemble import SamplerConfig, sample_game

    failures = []
    for seed, upper in ((7, 1.0), (11, 1.33)):
        games = checks.program_draws(seed, 200, upper)
        config = SamplerConfig(count=200, master_seed=seed, b_a_upper=upper)
        for i in range(200):
            params = sample_game(config, i)
            for name, column in games.items():
                if getattr(params, name) != column[i]:
                    failures.append(f"seed {seed} game {i}: {name} differs from sample_game")
    return failures


def main() -> int:
    failed = False
    premise = sampler_premise()
    print(f"sampler rebuild matches sample_game: {'no' if premise else 'yes'}")
    for line in premise[:5]:
        print(f"  {line}")
    failed |= bool(premise)
    for workload, doctoring, expected in CASES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "0", "--doctor", doctoring],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        reported = json.loads(lines[-1]) if lines else {}
        caught = (proc.returncode == 1 and reported.get("correct") is False
                  and expected in proc.stderr)
        failed |= not caught
        print(f"{workload} with {doctoring} corrupted: exit {proc.returncode}, "
              f"correct={reported.get('correct')} -> {'caught' if caught else 'MISSED'}")
        if not caught:
            print(proc.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
