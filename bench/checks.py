"""Output checks computed apart from the program.

Nothing here imports ``cyberevo``.  The checks rebuild what the CLI's
artifacts must contain from the model's documented definitions:

- the sampler's per-index contract (``default_rng([master_seed, i])``
  feeding the nested-uniform ranges, see ``cyberevo.ensemble.sample_game``);
- the replicator field brackets k0 + k1*alpha and g0 + g1*beta, whose signs
  at the four corners decide stability in closed form;
- the expectation of each pair's social welfare under the sampling measure.

Each ``check_*`` function returns a list of failure messages; an empty list
means every check held.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

#: Corner eigenvalue real parts within this of zero make a corner
#: NonHyperbolic, never Stable (the classifier's hyperbolicity tolerance).
EPS = 1e-9

#: Agreement with sampled reference values is required within this many
#: standard errors.
Z = 5.0

#: Games drawn by the benchmark's own vectorised sampler for the share
#: check, and the chunk size that keeps its memory small.
REFERENCE_GAMES = 200_000
_CHUNK = 20_000

#: Stable corner kinds reported by the CLI, in its v-curve column order.
KINDS = ("E3", "E2", "E4")

#: Corner (beta, alpha) of each kind.
CORNERS = {"E1": (0.0, 0.0), "E2": (0.0, 1.0), "E3": (1.0, 0.0), "E4": (1.0, 1.0)}

#: Strategy-pair labels in the CLI's order.
PAIRS = ("NoDefence,NoAttack", "NoDefence,Attack", "Defence,NoAttack", "Defence,Attack")


# --------------------------------------------------------------------------
# Sampling and closed-form classification


def _games_from_uniforms(u: np.ndarray, b_a_upper: float) -> dict[str, np.ndarray]:
    """Nested-uniform ranges applied to rows of six uniforms in [0, 1)."""
    w = 1.0 - u[:, 0]
    c_a = w * u[:, 1]
    c_d = w * u[:, 2]
    b_a = b_a_upper - (b_a_upper - c_a) * u[:, 3]
    b_d = w - (w - c_d) * u[:, 4]
    v = 1.0 - u[:, 5]
    return {"w": w, "c_a": c_a, "c_d": c_d, "b_a": b_a, "b_d": b_d, "v": v}


def _open_ranges_hold(g: dict[str, np.ndarray], b_a_upper: float) -> bool:
    return bool(
        np.all((0.0 < g["c_a"]) & (g["c_a"] < g["w"]))
        and np.all((0.0 < g["c_d"]) & (g["c_d"] < g["w"]))
        and np.all((g["c_a"] < g["b_a"]) & (g["b_a"] <= b_a_upper))
        and np.all((g["c_d"] < g["b_d"]) & (g["b_d"] <= g["w"]))
    )


class SamplerContractError(Exception):
    """A draw landed on an excluded endpoint, which the program redraws."""


def program_draws(master_seed: int, count: int, b_a_upper: float) -> dict[str, np.ndarray]:
    """The games the program samples for ``(master_seed, 0..count-1)``.

    Game i takes six uniforms from ``default_rng([master_seed, i])``.  The
    program redraws a value that rounds onto an excluded endpoint (odds of
    about 2**-53 per draw); that case is reported rather than modelled.
    """
    u = np.empty((count, 6))
    for i in range(count):
        u[i] = np.random.default_rng([master_seed, i]).random(6)
    games = _games_from_uniforms(u, b_a_upper)
    if not _open_ranges_hold(games, b_a_upper) or np.any(u[:, 1:3] == 0.0):
        raise SamplerContractError(
            f"master seed {master_seed}: a draw needs the program's redraw rule"
        )
    return games


def brackets(g: dict[str, np.ndarray], fine: float) -> tuple[np.ndarray, ...]:
    """(k0, k1, g0, g1) of the field brackets with fines f_u = f_s = ``fine``.

    k0 + k1*alpha is the defender's payoff gain from Defence and
    g0 + g1*beta the attacker's gain from Attack (payoff matrix of the
    model, fines m*p = n*s = fine).
    """
    k0 = g["b_d"] - g["c_d"]
    k1 = g["v"] * g["b_d"] - g["b_d"] + g["v"] * g["w"]
    g0 = g["b_a"] - g["c_a"] - fine
    g1 = g["v"] * (fine - g["b_a"] - fine)
    return k0, k1, g0, g1


def corner_eigenvalues(g: dict[str, np.ndarray], fine: float) -> dict[str, tuple]:
    """The two Jacobian eigenvalues at each corner: its diagonal there."""
    k0, k1, g0, g1 = brackets(g, fine)
    return {
        "E1": (k0, g0),
        "E2": (k0 + k1, -g0),
        "E3": (-k0, g0 + g1),
        "E4": (-(k0 + k1), -(g0 + g1)),
    }


def stable_kinds(g: dict[str, np.ndarray], fine: float) -> dict[str, np.ndarray]:
    """Closed-form stability of each corner, as boolean arrays.

    A corner is stable when both of its eigenvalues are below -EPS.
    k0 = b_d - c_d > 0 by construction, so E1 is never stable; the interior
    point has zero trace and never is.
    """
    eigen = corner_eigenvalues(g, fine)
    return {k: (eigen[k][0] < -EPS) & (eigen[k][1] < -EPS) for k in KINDS}


def source_kinds(g: dict[str, np.ndarray], fine: float) -> dict[str, np.ndarray]:
    """Corners with both eigenvalues above EPS, which no interior start reaches."""
    eigen = corner_eigenvalues(g, fine)
    return {k: (eigen[k][0] > EPS) & (eigen[k][1] > EPS) for k in CORNERS}


def v_bins(v: np.ndarray) -> np.ndarray:
    """Bin index of [0, 0.1), ..., [0.9, 1.0]; the last bin is closed."""
    return np.minimum((v / 0.1).astype(np.int64), 9)


def aggregates(kinds: dict[str, np.ndarray], v: np.ndarray) -> dict:
    """Stable-count distribution, kind counts and v-binned kind curves."""
    n_stable = sum(kinds[k].astype(np.int64) for k in KINDS)
    dist = {
        "0": int(np.sum(n_stable == 0)),
        "1": int(np.sum(n_stable == 1)),
        "2": int(np.sum(n_stable == 2)),
        "3+": int(np.sum(n_stable >= 3)),
    }
    counts = {"E1": 0, "E2": 0, "E3": 0, "E4": 0, "E5": 0}
    bins = v_bins(v)
    curves = {}
    for k in KINDS:
        counts[k] = int(np.sum(kinds[k]))
        curves[k] = [int(c) for c in np.bincount(bins[kinds[k]], minlength=10)]
    return {"distribution": dist, "kind_counts": counts, "v_curves": curves}


def welfare(g: dict[str, np.ndarray], fine: float) -> dict[str, np.ndarray]:
    """Defender plus attacker payoff at each pure pair."""
    w, c_a, c_d, b_a, b_d, v = (g[k] for k in ("w", "c_a", "c_d", "b_a", "b_d", "v"))
    return {
        PAIRS[0]: np.zeros_like(w),
        PAIRS[1]: -w - c_a + b_a - fine,
        PAIRS[2]: b_d - c_d,
        PAIRS[3]: (-c_d + v * b_d - w * (1.0 - v))
        + (-c_a + b_a * (1.0 - v) - v * fine - (1.0 - v) * fine),
    }


def expected_welfare(b_a_upper: float, fine: float) -> dict[str, float]:
    """Welfare expectations under the nested-uniform measure.

    E[w] = 1/2, E[c_a] = E[c_d] = 1/4, E[b_a] = b_a_upper/2 + 1/8,
    E[b_d] = 3/8, E[v] = 1/2, and v is drawn independently of the rest.
    """
    return {
        PAIRS[0]: 0.0,
        PAIRS[1]: b_a_upper / 2.0 - 0.625 - fine,
        PAIRS[2]: 0.125,
        PAIRS[3]: b_a_upper / 4.0 - 0.5 - fine,
    }


def reference_sample(seed: int, b_a_upper: float, fines: tuple[float, ...]) -> dict:
    """Kind shares and welfare moments from the benchmark's own draw.

    Draws :data:`REFERENCE_GAMES` games vectorised from a generator seeded
    unlike any of the program's per-index substreams.
    """
    rng = np.random.default_rng(10**9 + seed)
    hits = {f: {k: 0 for k in KINDS} for f in fines}
    sums = {f: {p: 0.0 for p in PAIRS} for f in fines}
    squares = {f: {p: 0.0 for p in PAIRS} for f in fines}
    for _ in range(REFERENCE_GAMES // _CHUNK):
        g = _games_from_uniforms(rng.random((_CHUNK, 6)), b_a_upper)
        for f in fines:
            for k, mask in stable_kinds(g, f).items():
                hits[f][k] += int(mask.sum())
            for p, values in welfare(g, f).items():
                sums[f][p] += float(values.sum())
                squares[f][p] += float((values * values).sum())
    n = REFERENCE_GAMES
    out = {}
    for f in fines:
        mean = {p: sums[f][p] / n for p in PAIRS}
        out[f] = {
            "n": n,
            "shares": {k: hits[f][k] / n for k in KINDS},
            "welfare_sd": {
                p: math.sqrt(max(squares[f][p] / n - mean[p] ** 2, 0.0)) for p in PAIRS
            },
        }
    return out


# --------------------------------------------------------------------------
# Artifact readers


def read_table(path: Path) -> list[list[str]]:
    """Rows of a CLI CSV table after its ``#`` provenance lines and header."""
    with open(path, encoding="utf-8", newline="") as handle:
        body = [line for line in handle if not line.startswith("#")]
    return list(csv.reader(body))[1:]


def read_result(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["result"]


def _v_curves_from_rows(rows: list[list[str]]) -> dict[str, list[int]]:
    # Columns: bin_low, bin_high, E3, E2, E4.
    return {k: [int(row[2 + j]) for row in rows] for j, k in enumerate(KINDS)}


def level_table_name(level: float) -> str:
    """CSV name the ``fines`` subcommand gives a level's v-curve table."""
    if level == 0.1:
        return "fig15_fines_0p1"
    if level == 0.5:
        return "fig16_fines_0p5"
    return "fines_" + f"{level:g}".replace(".", "p").replace("-", "m")


# --------------------------------------------------------------------------
# Checks


def _compare(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: artifact {got} != closed form {want}"]


def _share_failures(label: str, counts: dict, n: int, ref: dict) -> list[str]:
    failures = []
    for k in KINDS:
        p_cli = counts[k] / n
        p_ref = ref["shares"][k]
        pooled = (counts[k] + p_ref * ref["n"]) / (n + ref["n"])
        se = math.sqrt(max(pooled * (1.0 - pooled), 1e-12) * (1.0 / n + 1.0 / ref["n"]))
        if abs(p_cli - p_ref) > Z * se:
            failures.append(
                f"{label} {k} share {p_cli:.5f} vs reference draw {p_ref:.5f} "
                f"(more than {Z:g} standard errors, se={se:.5f})"
            )
    return failures


class Expected:
    """What one subcommand run's artifacts must show, built once per run.

    ``levels`` are the fine levels f_u = f_s of the run ((0.0,) for
    ``ensemble``).  Raises :class:`SamplerContractError` when a draw needs
    the program's redraw rule.
    """

    def __init__(self, master_seed: int, count: int, b_a_upper: float,
                 levels: tuple[float, ...]) -> None:
        games = program_draws(master_seed, count, b_a_upper)
        self.count = count
        self.b_a_upper = b_a_upper
        self.levels = levels
        self.kinds = {level: stable_kinds(games, level) for level in levels}
        self.aggregates = {level: aggregates(self.kinds[level], games["v"]) for level in levels}
        self.reference = reference_sample(master_seed, b_a_upper, levels)


def check_ensemble(out: Path, expected: Expected) -> list[str]:
    """Checks on the artifacts of ``cyberevo ensemble`` (no fines)."""
    want = expected.aggregates[0.0]
    ref = expected.reference[0.0]
    failures = []
    counts_rows = read_table(out / "fig6_counts.csv")
    failures += _compare(
        "fig6_counts", {row[0]: int(row[1]) for row in counts_rows}, want["distribution"]
    )
    kind_counts = {row[0]: int(row[1]) for row in read_table(out / "fig7_ratios.csv")}
    failures += _compare("fig7_ratios counts", kind_counts, want["kind_counts"])
    failures += _compare(
        "fig8_vcurves", _v_curves_from_rows(read_table(out / "fig8_vcurves.csv")),
        want["v_curves"],
    )
    failures += _share_failures("ensemble", kind_counts, expected.count, ref)
    means = {
        row[0][len("mean_welfare["):-1]: float(row[1])
        for row in read_table(out / "fig17_welfare.csv")
        if row[0].startswith("mean_welfare[")
    }
    welfare_means = expected_welfare(expected.b_a_upper, 0.0)
    for p in PAIRS:
        if p not in means:
            failures.append(f"fig17_welfare: no mean for {p}")
            continue
        # 5e-7 covers the CSV's six-decimal rounding.
        tol = Z * ref["welfare_sd"][p] / math.sqrt(expected.count) + 5e-7
        if abs(means[p] - welfare_means[p]) > tol:
            failures.append(
                f"mean welfare {p} {means[p]:.6f} vs expectation {welfare_means[p]:.6f} "
                f"(tolerance {tol:.6f})"
            )
    return failures


def check_fines(out: Path, expected: Expected) -> list[str]:
    """Checks on the artifacts of ``cyberevo fines`` across its levels."""
    levels = expected.levels
    kinds = expected.kinds
    failures = []
    summary = read_result(out / "fines_summary.json")
    curves = {}
    for level in levels:
        want = expected.aggregates[level]
        key = f"{level:g}"
        if key not in summary:
            failures.append(f"fines_summary.json: no level {key}")
            continue
        got = summary[key]
        failures += _compare(
            f"level {key} stable_count_distribution",
            got["stable_count_distribution"], want["distribution"],
        )
        failures += _compare(f"level {key} kind_counts", got["kind_counts"], want["kind_counts"])
        curves[level] = _v_curves_from_rows(read_table(out / f"{level_table_name(level)}.csv"))
        failures += _compare(f"level {key} v curves", curves[level], want["v_curves"])
        failures += _share_failures(
            f"level {key}", got["kind_counts"], expected.count, expected.reference[level])
    ordered = sorted(levels)
    for low, high in zip(ordered, ordered[1:]):
        # Per game, a higher fine can only add E3 and remove E2 or E4.
        for k, grows in (("E3", True), ("E2", False), ("E4", False)):
            before, after = kinds[low][k], kinds[high][k]
            broken = int(np.sum(before & ~after)) if grows else int(np.sum(after & ~before))
            if broken:
                failures.append(
                    f"closed form: {broken} games break {k} monotonicity from "
                    f"level {low:g} to {high:g}"
                )
            if low in curves and high in curves:
                for b, (x, y) in enumerate(zip(curves[low][k], curves[high][k])):
                    if (y < x) if grows else (y > x):
                        failures.append(
                            f"v bin {b}: {k} count {x} at level {low:g} -> {y} at "
                            f"level {high:g} ({'must not shrink' if grows else 'must not grow'})"
                        )
    return failures


def corner_distance(states: np.ndarray, corners: list[tuple[float, float]]) -> np.ndarray:
    """Max-norm distance of each (..., 2) state to its nearest listed corner."""
    if not corners:
        return np.full(states.shape[:-1], np.inf)
    targets = np.array(corners, dtype=float)
    gaps = np.abs(states[..., None, :] - targets).max(axis=-1)
    return gaps.min(axis=-1)


def in_unit_square(states: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(states)) and np.all((states >= 0.0) & (states <= 1.0)))
