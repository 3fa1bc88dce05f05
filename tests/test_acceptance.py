"""Acceptance gate: thirteen numbered criteria over the whole toolkit.

Each test prints exactly one live line, ``[criterion NN] PASS ...`` or
``[criterion NN] FAIL ...``, with the measured values inline, then asserts.
The module-scoped fixtures run the full 100,000-game ensemble (seed 1,
zero fines) once under the default measure and once under the paper's
attacker-benefit ceiling, plus the two fine-level ensembles once; the
remaining criteria are cheap closed-form or small-sample checks.

The criteria that compare against the paper's figures (5, 6, 7, 8 and 13)
draw b_a up to :data:`PAPER_B_A_UPPER`, which is inferred from the paper's
headline E4 share on master seed 2.  The oracles (10, 11) stay on the
default measure, on which their sizes were set.
"""

import json
import math
import time

import numpy as np
import pytest

from cyberevo import (
    Classification,
    EquilibriumKind,
    FineScenario,
    GameParams,
    PAPER_B_A_UPPER,
    PopulationState,
    SamplerConfig,
    STRATEGY_PAIRS,
    AbmConfig,
    analyze_equilibria,
    batch_final_states,
    field_coefficients,
    fines_study,
    interior_equilibrium,
    jacobian,
    replicator_field,
    run_ensemble,
    sample_game,
    simulate,
    social_welfare,
)
from cyberevo import cli, ensemble

SINGLE_STABLE = GameParams(w=0.98, c_a=0.51, c_d=0.20, b_a=0.90, b_d=0.79, v=0.26)
BISTABLE = GameParams(w=0.98, c_a=0.69, c_d=0.54, b_a=0.79, b_d=0.72, v=0.15)

COUNT = 100_000
MASTER_SEED = 1


@pytest.fixture(scope="module")
def big_run():
    config = SamplerConfig(count=COUNT, master_seed=MASTER_SEED)
    start = time.perf_counter()
    table, summary = run_ensemble(config, workers=1)
    elapsed = time.perf_counter() - start
    return table, summary, elapsed


@pytest.fixture(scope="module")
def paper_run():
    config = SamplerConfig(
        count=COUNT, master_seed=MASTER_SEED, b_a_upper=PAPER_B_A_UPPER
    )
    start = time.perf_counter()
    table, summary = run_ensemble(config, workers=1)
    elapsed = time.perf_counter() - start
    return table, summary, elapsed


@pytest.fixture(scope="module")
def fines_runs():
    return fines_study(
        count=COUNT, master_seed=MASTER_SEED, levels=(0.1, 0.5), workers=1,
        b_a_upper=PAPER_B_A_UPPER,
    )


def _report(capsys, number, checks):
    failures = [message for ok, message in checks if not ok]
    status = "FAIL" if failures else "PASS"
    detail = "; ".join(failures if failures else [m for _, m in checks])
    line = f"[criterion {number:02d}] {status} {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert not failures, line


def test_criterion_01_welfare_exactness(capsys):
    values = [social_welfare(SINGLE_STABLE, pair) for pair in STRATEGY_PAIRS]
    expected = (0.0, -0.59, 0.59, -0.5638)
    checks = [
        (
            abs(values[i] - expected[i]) <= 1e-9,
            f"welfare[{STRATEGY_PAIRS[i]}]={values[i]:.10f}",
        )
        for i in range(4)
    ]
    checks.append((round(values[3], 2) == -0.56, f"round2={round(values[3], 2)}"))
    _report(capsys, 1, checks)


def test_criterion_02_interior_eigenvalues(capsys):
    interior = interior_equilibrium(BISTABLE)
    report = analyze_equilibria(BISTABLE)[-1]
    lam1, lam2 = report.eigen.lambda1, report.eigen.lambda2
    trace = report.jacobian.trace
    checks = [
        (interior is not None, "interior present"),
        (
            abs(interior.beta - 0.843882) <= 1e-6
            and abs(interior.alpha - 0.387097) <= 1e-6,
            f"location=({interior.beta:.6f},{interior.alpha:.6f})",
        ),
        (
            abs(abs(lam1) - 0.041501) <= 1e-5 and abs(abs(lam2) - 0.041501) <= 1e-5,
            f"|eigen|=({abs(lam1):.6f},{abs(lam2):.6f})",
        ),
        (lam1 == -lam2, "eigenvalues are an opposite pair"),
        (abs(trace) < 1e-9, f"|trace|={abs(trace):.2e}"),
    ]
    _report(capsys, 2, checks)


def test_criterion_03_corner_closed_forms(capsys):
    config = SamplerConfig(count=10_000, master_seed=123)
    max_err = 0.0
    off_diag_nonzero = 0
    for index in range(config.count):
        params = sample_game(config, index)
        if index % 2:
            fine_rng = np.random.default_rng([777, index])
            params = FineScenario(
                f_u=float(fine_rng.uniform()), f_s=float(fine_rng.uniform())
            ).apply(params)
        k0, k1, g0, g1 = field_coefficients(params)
        closed = {
            EquilibriumKind.E1: (k0, g0),
            EquilibriumKind.E2: (k0 + k1, -g0),
            EquilibriumKind.E3: (-k0, g0 + g1),
            EquilibriumKind.E4: (-(k0 + k1), -(g0 + g1)),
        }
        for report in analyze_equilibria(params)[:4]:
            jac, eig = report.jacobian, report.eigen
            if jac.j12 != 0.0 or jac.j21 != 0.0:
                off_diag_nonzero += 1
            got = sorted((eig.lambda1.real, eig.lambda2.real))
            want = sorted(closed[report.kind])
            max_err = max(max_err, abs(got[0] - want[0]), abs(got[1] - want[1]))
    checks = [
        (max_err <= 1e-12, f"max closed-form deviation {max_err:.3e} over 10000 games"),
        (off_diag_nonzero == 0, f"corners with nonzero off-diagonal: {off_diag_nonzero}"),
    ]
    _report(capsys, 3, checks)


def test_criterion_04_single_stable_classification(capsys):
    reports = {r.kind: r.classification for r in analyze_equilibria(SINGLE_STABLE)}
    checks = [
        (reports[EquilibriumKind.E4] is Classification.STABLE,
         f"E4={reports[EquilibriumKind.E4].value}"),
    ]
    for kind in (EquilibriumKind.E1, EquilibriumKind.E2, EquilibriumKind.E3):
        checks.append(
            (reports[kind] is not Classification.STABLE,
             f"{kind.value}={reports[kind].value}")
        )
    _report(capsys, 4, checks)


def test_criterion_05_ensemble_headline_numbers(capsys, paper_run):
    # PAPER_B_A_UPPER was fitted to the 0.398 E4 share (on seed 2), so the
    # E4-ratio window confirms that fit rather than testing it; the count
    # distribution, the E4>E3>E2 ordering and the other figures were not
    # fitted and still test the measure.
    _, summary, elapsed = paper_run
    distribution = summary.stable_count_distribution
    one = distribution["1"] / COUNT
    two = distribution["2"] / COUNT
    counts = summary.kind_counts
    e4_ratio = summary.kind_ratios[EquilibriumKind.E4]
    checks = [
        (0.95 <= one <= 1.00, f"one-stable={one:.4f} (window [0.95,1.00])"),
        (0.00 <= two <= 0.05, f"two-stable={two:.4f} (window [0.00,0.05])"),
        (distribution["3+"] == 0, f"three-plus={distribution['3+']}"),
        (counts[EquilibriumKind.E1] == 0, f"E1-stable={counts[EquilibriumKind.E1]}"),
        (
            abs(e4_ratio - 0.398) <= 0.05,
            f"E4-ratio={e4_ratio:.4f} (window 0.398+-0.050)",
        ),
        (
            counts[EquilibriumKind.E4] > counts[EquilibriumKind.E3]
            > counts[EquilibriumKind.E2],
            "ordering E4>E3>E2 (counts E4="
            f"{counts[EquilibriumKind.E4]}, E3={counts[EquilibriumKind.E3]}, "
            f"E2={counts[EquilibriumKind.E2]})",
        ),
        (elapsed < 60.0, f"runtime={elapsed:.1f}s (target <60s)"),
    ]
    _report(capsys, 5, checks)


def test_criterion_06_correlation_structure(capsys, paper_run):
    _, summary, _ = paper_run
    labels = summary.correlation_labels
    matrix = summary.correlation
    i3, i2, i4, it = (labels.index(k) for k in ("E3", "E2", "E4", "total"))
    c32 = matrix[i3][i2]
    c43 = matrix[i4][i3]
    c42 = matrix[i4][i2]
    c3t = matrix[i3][it]
    c2t = matrix[i2][it]
    checks = [
        (abs(c32 - (-0.36)) <= 0.15, f"corr(E3,E2)={c32:.4f} (window -0.36+-0.15)"),
        (c43 < -0.5, f"corr(E4,E3)={c43:.4f} (required < -0.5)"),
        (c42 < -0.5, f"corr(E4,E2)={c42:.4f} (required < -0.5)"),
        (c3t > 0.0, f"corr(E3,total)={c3t:.4f} (required > 0)"),
        (c2t > 0.0, f"corr(E2,total)={c2t:.4f} (required > 0)"),
    ]
    _report(capsys, 6, checks)


def _is_unimodal(curve):
    peak = curve.index(max(curve))
    rising = all(curve[i] <= curve[i + 1] for i in range(peak))
    falling = all(curve[i] >= curve[i + 1] for i in range(peak, len(curve) - 1))
    return rising and falling


def test_criterion_07_defence_intensity_curves(capsys, paper_run):
    _, summary, _ = paper_run
    curves = summary.v_binned_kind_frequency
    e3 = list(curves[EquilibriumKind.E3])
    e2 = list(curves[EquilibriumKind.E2])
    e4 = list(curves[EquilibriumKind.E4])
    e2_peak = max(e2)
    e2_tail = e2[5:]
    e4_peak_bin = e4.index(max(e4))
    checks = [
        (e3.index(max(e3)) in (8, 9), f"E3 argmax bin={e3.index(max(e3))}"),
        (e2.index(e2_peak) in (0, 1), f"E2 argmax bin={e2.index(e2_peak)}"),
        (
            all(count < 0.10 * e2_peak for count in e2_tail),
            f"E2 tail max={max(e2_tail)} vs 10% of peak={0.1 * e2_peak:.1f}",
        ),
        (_is_unimodal(e4), f"E4 curve unimodal: {e4}"),
        (e4_peak_bin in (4, 5, 6), f"E4 peak bin={e4_peak_bin} (v=0.5 bin +-1)"),
    ]
    _report(capsys, 7, checks)


def test_criterion_08_fines_orderings(capsys, fines_runs):
    def counts(level):
        kinds = fines_runs[level].kind_counts
        return {k.value: kinds[k] for k in
                (EquilibriumKind.E2, EquilibriumKind.E3, EquilibriumKind.E4)}

    low, high = counts(0.1), counts(0.5)
    checks = [
        (
            low["E3"] > low["E4"] > low["E2"],
            f"level 0.1 requires E3>E4>E2, measured E3={low['E3']}, "
            f"E4={low['E4']}, E2={low['E2']}",
        ),
        (
            high["E3"] > high["E2"] > high["E4"],
            f"level 0.5 requires E3>E2>E4, measured E3={high['E3']}, "
            f"E2={high['E2']}, E4={high['E4']}",
        ),
    ]
    _report(capsys, 8, checks)


def test_criterion_09_jacobian_vs_finite_differences(capsys):
    config = SamplerConfig(count=1000, master_seed=321)
    state_rng = np.random.default_rng(322)
    h = 1e-6
    max_err = 0.0
    for index in range(config.count):
        params = sample_game(config, index)
        beta, alpha = state_rng.uniform(1e-3, 1.0 - 1e-3, size=2)
        jac = jacobian(params, PopulationState(beta, alpha))

        def field_at(b, a):
            value = replicator_field(params, PopulationState(b, a))
            return value.d_beta, value.d_alpha

        fb_hi, fa_hi = field_at(beta + h, alpha)
        fb_lo, fa_lo = field_at(beta - h, alpha)
        gb_hi, ga_hi = field_at(beta, alpha + h)
        gb_lo, ga_lo = field_at(beta, alpha - h)
        fd = (
            (fb_hi - fb_lo) / (2 * h),
            (gb_hi - gb_lo) / (2 * h),
            (fa_hi - fa_lo) / (2 * h),
            (ga_hi - ga_lo) / (2 * h),
        )
        analytic = (jac.j11, jac.j12, jac.j21, jac.j22)
        max_err = max(
            max_err, max(abs(a - b) for a, b in zip(analytic, fd))
        )
    _report(capsys, 9, [
        (max_err < 1e-6, f"max |analytic - central-difference| = {max_err:.3e} over 1000 pairs"),
    ])


def _game(table, row):
    return GameParams(*table.params[row].tolist(), *table.fines)


def _basin_mismatch(finals_row, stable_row):
    stable_corners = [
        kind.corner for kind, stable in zip(EquilibriumKind, stable_row)
        if stable and kind.corner is not None
    ]
    if not stable_corners:
        return True
    targets = np.array(stable_corners, dtype=float)
    dist = np.abs(finals_row[:, None, :] - targets[None, :, :]).max(axis=2)
    return not (dist.min(axis=1) <= 1e-3).all()


def test_criterion_10_classifier_vs_basin_oracle(capsys, big_run):
    table, _, _ = big_run
    hyperbolic = []
    for row in range(len(table)):
        reports = analyze_equilibria(_game(table, row))
        if all(r.classification is not Classification.NON_HYPERBOLIC for r in reports):
            hyperbolic.append(row)
        if len(hyperbolic) == 1000:
            break
    assert len(hyperbolic) == 1000
    games = [_game(table, row) for row in hyperbolic]
    axis = np.linspace(1e-3, 1.0 - 1e-3, 4)
    starts = [PopulationState(float(b), float(a)) for b in axis for a in axis]
    finals = batch_final_states(games, starts)
    # A pair lands exactly on a corner if and only if the oracle resolved it.
    unresolved_pairs = int((~np.all((finals == 0.0) | (finals == 1.0), axis=-1)).sum())
    stable = table.stable[hyperbolic]
    disagreements = [
        (int(table.indices[hyperbolic[i]]), games[i])
        for i in range(len(games)) if _basin_mismatch(finals[i], stable[i])
    ]
    agreement = 1.0 - len(disagreements) / len(hyperbolic)
    logged = "; ".join(
        f"game {idx}: {params}" for idx, params in disagreements[:5]
    )
    _report(capsys, 10, [
        (
            agreement >= 0.99,
            f"agreement={agreement:.4f} over 1000 hyperbolic games, "
            f"disagreements={len(disagreements)}, "
            f"unresolved pairs={unresolved_pairs} of {finals.shape[0] * finals.shape[1]}"
            + (f" [{logged}]" if logged else ""),
        ),
    ])


def test_criterion_11_abm_agreement(capsys, big_run):
    table, _, _ = big_run
    picked = np.flatnonzero(table.stable.sum(axis=1) == 1)[:20].tolist()
    assert len(picked) == 20
    kinds = list(EquilibriumKind)
    worst = 0.0
    events = 0
    failures = []
    for row in picked:
        (column,) = np.flatnonzero(table.stable[row]).tolist()
        kind = kinds[column]
        index = int(table.indices[row])
        params = _game(table, row)
        corner_beta, corner_alpha = kind.corner
        # Step counts sized for the weakest payoff gradient among the 20
        # reference games (about 5e-3): its transient excursion decays at
        # roughly 2.7e-5 per step, so the averaging window starts only
        # after the slowest game has settled at its mutation floor.
        config = AbmConfig(
            population_size=1000,
            steps=1_200_000,
            burn_in=600_000,
            seed=1000 + index,
        )
        result = simulate(params, config)
        events += result.events
        err = max(
            abs(result.mean_beta - corner_beta),
            abs(result.mean_alpha - corner_alpha),
        )
        worst = max(worst, err)
        if err > 0.05:
            failures.append(
                f"game {index} ({kind.value}): means=({result.mean_beta:.4f},"
                f"{result.mean_alpha:.4f}) params={params}"
            )
    _report(capsys, 11, [
        (
            not failures,
            f"20 single-stable games, worst coordinate error={worst:.4f} "
            f"(limit 0.05), events={events}"
            + (f" failures: {'; '.join(failures)}" if failures else ""),
        ),
    ])


def test_criterion_12_byte_identical_outputs(capsys, tmp_path, monkeypatch):
    # Both worker counts run the same code in the calling thread; 1,000-game
    # blocks split the 2,000 games where the default block holds them all.
    args = ["ensemble", "--count", "2000", "--seed", str(MASTER_SEED)]
    assert cli.main([*args, "--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert cli.main([*args, "--out", str(tmp_path / "w2"), "--workers", "2"]) == 0
    monkeypatch.setattr(ensemble, "BLOCK_SIZE", 1000)
    assert cli.main([*args, "--out", str(tmp_path / "blocks")]) == 0
    out_a = tmp_path / "w1"
    names = sorted(path.name for path in out_a.iterdir())
    mismatched = [
        f"{other}/{name}" for other in ("w2", "blocks") for name in names
        if (out_a / name).read_bytes() != (tmp_path / other / name).read_bytes()
    ]
    _report(capsys, 12, [
        (
            len(names) >= 10 and not mismatched,
            f"{len(names)} artifacts, byte-identical across worker counts and "
            "blockings" + (f"; mismatched: {mismatched}" if mismatched else ""),
        ),
    ])


def test_criterion_13_welfare_trends(capsys, paper_run):
    _, summary, _ = paper_run
    stats = summary.welfare_stats
    best_pair = max(stats.mean_by_pair, key=stats.mean_by_pair.get)
    cd_means = stats.binned_mean["c_d"]
    non_increasing = all(
        cd_means[i + 1] <= cd_means[i] + 1e-12
        for i in range(9)
        if not (math.isnan(cd_means[i]) or math.isnan(cd_means[i + 1]))
    )
    v_means = stats.binned_mean["v"]
    low_v = float(np.nanmean(v_means[:5]))
    high_v = float(np.nanmean(v_means[5:]))
    checks = [
        (
            best_pair == STRATEGY_PAIRS[2],
            f"max mean welfare at {best_pair} "
            f"({stats.mean_by_pair[best_pair]:.4f})",
        ),
        (
            non_increasing,
            "welfare vs c_d non-increasing: "
            + ",".join(f"{value:.4f}" for value in cd_means),
        ),
        (
            high_v > low_v,
            f"mean welfare v>0.5 ({high_v:.4f}) vs v<=0.5 ({low_v:.4f})",
        ),
    ]
    _report(capsys, 13, checks)
