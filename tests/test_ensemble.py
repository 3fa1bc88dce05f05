"""Seeded sampling, determinism across blockings, and ensemble aggregates."""

import dataclasses
import gc
import hashlib
import math
import multiprocessing
import os
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyberevo import (
    Classification,
    ConfigError,
    EquilibriumKind,
    FineScenario,
    GameParams,
    GameRecord,
    GameTable,
    STRATEGY_PAIRS,
    SamplerConfig,
    analyze_equilibria,
    correlation_matrix,
    fines_study,
    interior_equilibrium,
    run_ensemble,
    sample_game,
    social_welfare,
    stable_set,
    welfare_analytics,
)
from cyberevo import ensemble
from cyberevo.ensemble import (
    BIN_WIDTH,
    BLOCK_SIZE,
    MAX_HISTOGRAM_BINS,
    PAPER_B_A_UPPER,
    records_digest,
    summarize,
)
from cyberevo.game import PARAMETERS, ZERO_FINES

from test_game import (
    DRAWN_VIOLATIONS,
    LARGE_FINES,
    NOT_A_NUMBER,
    REF,
    check_number_rule,
    number_rule_cases,
    wide_rows,
)


def test_sampler_config_validation():
    SamplerConfig(count=1)
    with pytest.raises(ConfigError, match="count"):
        SamplerConfig(count=0)
    with pytest.raises(ConfigError, match="master_seed"):
        SamplerConfig(count=1, master_seed=-1)
    with pytest.raises(ConfigError, match="b_a_upper"):
        SamplerConfig(count=1, b_a_upper=0.5)
    SamplerConfig(count=np.int64(3), master_seed=np.uint64(2**64 - 1))


@pytest.mark.parametrize("fields, name", [
    ({"count": 2.5}, "count"),
    ({"count": 5.0}, "count"),
    ({"count": True}, "count"),
    ({"count": "5"}, "count"),
    ({"count": 5, "master_seed": 1.5}, "master_seed"),
    ({"count": 5, "master_seed": True}, "master_seed"),
])
def test_sampler_config_rejects_non_integers(fields, name):
    with pytest.raises(ConfigError, match=name):
        SamplerConfig(**fields)


def _sample_index(index):
    return sample_game(SamplerConfig(count=1), index)


def _with_scenario(scenario):
    return SamplerConfig(count=1, scenario=scenario)


# The ensemble's rows of the one number rule's table (see test_game.py).
ENSEMBLE_NUMBERS = [
    ("SamplerConfig-b_a_upper", lambda x: SamplerConfig(count=1, b_a_upper=x), "b_a_upper",
     NOT_A_NUMBER, [2, np.float32(1.33), np.int64(1)]),
    ("fines_study-levels", lambda x: fines_study(count=2, master_seed=1, levels=[x]),
     "fine level", NOT_A_NUMBER + ("int-beyond-float",), [1, np.float32(0.5), np.int64(0)]),
    ("sample_game-index", _sample_index, "index", NOT_A_NUMBER, [1, np.int64(1), 2**70]),
]


@pytest.mark.parametrize("call, value, named", [
    *number_rule_cases(ENSEMBLE_NUMBERS),
    # An integer field refuses a float even when its value is integral.
    pytest.param(_sample_index, 1.0, "index", id="sample_game-index-float"),
    # A scenario is a FineScenario, not a pair of fines or a number.
    pytest.param(_with_scenario, (0.1, 0.1), "scenario", id="SamplerConfig-scenario-tuple"),
    pytest.param(_with_scenario, None, "scenario", id="SamplerConfig-scenario-none"),
    pytest.param(_with_scenario, 0.5, "scenario", id="SamplerConfig-scenario-float"),
    pytest.param(_with_scenario, FineScenario(0.1, 0.1), None,
                 id="SamplerConfig-scenario-FineScenario"),
])
def test_ensemble_entry_points_check_numbers(call, value, named):
    check_number_rule(ConfigError, call, value, named)


def test_sample_game_deterministic_and_index_addressed():
    config = SamplerConfig(count=10, master_seed=7)
    game = sample_game(config, 5)
    assert game == sample_game(config, 5)
    # The draw depends only on (master_seed, index), not on count.
    other = SamplerConfig(count=1000, master_seed=7)
    assert game == sample_game(other, 5)
    assert game != sample_game(config, 6)
    assert game != sample_game(SamplerConfig(count=10, master_seed=8), 5)
    with pytest.raises(ConfigError, match="index"):
        sample_game(config, -1)


def test_sample_game_frozen_reference_draw():
    game = sample_game(SamplerConfig(count=10, master_seed=7), 5)
    assert game.w == 0.9809974989484135
    assert game.c_a == 0.6539092382697748
    assert game.c_d == 0.5036916065295176
    assert game.b_a == 0.8407846054950674
    assert game.b_d == 0.7850298656910436
    assert game.v == 0.33667941706064064


class _ScriptedGenerator:
    """Stands in for a Generator: ``random(6)`` returns the scripted sixes in turn."""

    def __init__(self, sixes):
        self.sixes = [np.array(six) for six in sixes]

    def random(self, size):
        assert size == 6
        return self.sixes.pop(0)


def test_sample_game_redraws_a_draw_on_an_excluded_endpoint(monkeypatch):
    top = 1.0 - 2.0**-53  # the largest uniform below 1
    # With w = 1 and c_a = top, b_a = 1 - 2**-53 * top rounds to exactly c_a,
    # an excluded endpoint.
    assert 1.0 - (1.0 - top) * top == top
    broken = {
        "b_a on c_a": [0.0, top, 0.5, top, 0.5, 0.5],
        "c_a = 0": [0.5, 0.0, 0.5, 0.5, 0.5, 0.5],
    }
    # Differs from each broken six at every position, and maps to dyadic
    # values, so the expected game is written out exactly.
    valid = [0.25, 0.375, 0.75, 0.125, 0.625, 0.875]
    expected = GameParams(w=0.75, c_a=0.28125, c_d=0.5625,
                          b_a=1.0 - 0.71875 * 0.125, b_d=0.75 - 0.1875 * 0.625,
                          v=0.125)
    for name, six in broken.items():
        generator = _ScriptedGenerator([six, valid])
        seeds = []

        def default_rng(seed):
            seeds.append(seed)
            return generator

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        game = sample_game(SamplerConfig(count=1, master_seed=9), 4)
        # One Generator, from (master_seed, index); both sixes drawn once.
        assert seeds == [[9, 4]] and generator.sixes == [], name
        # The whole game is the valid six's: no uniform of the broken six
        # is kept.
        assert game == expected, name


def test_sampled_games_satisfy_constraints_and_ranges():
    config = SamplerConfig(count=2000, master_seed=3)
    mean_w = 0.0
    for index in range(config.count):
        game = sample_game(config, index)  # construction validates
        assert game.b_a <= 1.0
        assert game.fine_successful == 0.0
        assert game.fine_unsuccessful == 0.0
        mean_w += game.w
    assert mean_w / config.count == pytest.approx(0.5, abs=0.02)


def test_b_a_upper_extends_attacker_benefit_range():
    wide = SamplerConfig(count=200, master_seed=3, b_a_upper=2.0)
    draws = [sample_game(wide, i).b_a for i in range(200)]
    assert max(draws) > 1.0
    assert all(draw <= 2.0 for draw in draws)


def test_scenario_changes_fines_not_draws():
    base = SamplerConfig(count=10, master_seed=5)
    fined = SamplerConfig(
        count=10, master_seed=5, scenario=FineScenario(f_u=0.5, f_s=0.5)
    )
    for index in range(10):
        a, b = sample_game(base, index), sample_game(fined, index)
        assert (a.w, a.c_a, a.c_d, a.b_a, a.b_d, a.v) == \
            (b.w, b.c_a, b.c_d, b.b_a, b.b_d, b.v)
        assert (b.fine_successful, b.fine_unsuccessful) == (0.5, 0.5)


def _scalar_record(config, index):
    return _analyzed_record(index, sample_game(config, index))


def _analyzed_record(index, params):
    return GameRecord(
        index=index,
        params=params,
        stable_kinds=stable_set(params),
        welfare={pair: social_welfare(params, pair) for pair in STRATEGY_PAIRS},
        interior_present=interior_equilibrium(params) is not None,
    )


def test_no_fines_has_one_representation():
    config = SamplerConfig(count=2, master_seed=5)
    sampled = sample_game(config, 0)
    built = GameParams(*(getattr(sampled, name) for name in PARAMETERS))
    assert sampled == built
    table, _ = run_ensemble(config)
    record = _scalar_record(config, 0)
    other = GameRecord(
        1, built, record.stable_kinds, record.welfare, record.interior_present
    )
    assert GameTable.from_records([record, other]).fines == table.fines == (0.0, 0.0)


def test_integer_fines_render_as_the_record_view_does():
    config = SamplerConfig(count=20, master_seed=1, scenario=FineScenario(1, 1))
    table, summary = run_ensemble(config)
    assert table.fines == (1.0, 1.0)
    records = [_scalar_record(config, i) for i in range(config.count)]
    assert summary.records_digest == records_digest(records)


def test_run_ensemble_worker_count_invariant():
    config = SamplerConfig(count=600, master_seed=2)
    table1, summary1 = run_ensemble(config, workers=1)
    table2, summary2 = run_ensemble(config, workers=2)
    assert table1 == table2
    assert summary1 == summary2
    assert summary1.records_digest == records_digest(table1)
    for workers in (0, -1, 2.5, True):
        with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
            run_ensemble(config, workers=workers)
        with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
            fines_study(count=10, master_seed=1, levels=(0.1,), workers=workers)


def test_summary_counts_are_consistent():
    config = SamplerConfig(count=3000, master_seed=1)
    _, summary = run_ensemble(config)
    distribution = summary.stable_count_distribution
    assert sum(distribution.values()) == config.count
    assert distribution["3+"] == 0
    assert summary.kind_counts[EquilibriumKind.E1] == 0
    assert summary.kind_counts[EquilibriumKind.E5] == 0
    total_pairs = sum(summary.kind_counts.values())
    assert total_pairs == distribution["1"] + 2 * distribution["2"]
    assert sum(summary.kind_ratios.values()) == pytest.approx(1.0, abs=1e-12)
    for kind, curve in summary.v_binned_kind_frequency.items():
        assert sum(curve) == summary.kind_counts[kind]
    assert list(summary.param_binned_stability) == ["c_d", "c_a", "v", "w", "b_a", "b_d"]
    for histogram in summary.param_binned_stability.values():
        assert sum(histogram) == summary.kind_counts[EquilibriumKind.E4]


def _record(index, params, kinds):
    welfare = {pair: social_welfare(params, pair) for pair in STRATEGY_PAIRS}
    return GameRecord(
        index=index,
        params=params,
        stable_kinds=frozenset(kinds),
        welfare=welfare,
        interior_present=False,
    )


def test_correlation_matrix_nan_for_constant_indicators():
    params = GameParams(w=0.98, c_a=0.51, c_d=0.2, b_a=0.9, b_d=0.79, v=0.26)
    records = [
        _record(0, params, {EquilibriumKind.E3}),
        _record(1, params, {EquilibriumKind.E2}),
        _record(2, params, {EquilibriumKind.E3, EquilibriumKind.E2}),
    ]
    matrix = correlation_matrix(records)
    # E4 never stable here: zero variance, so its row/column is undefined.
    assert np.isnan(matrix[2]).all()
    assert np.isnan(matrix[:, 2]).all()
    assert matrix[0, 0] == pytest.approx(1.0)
    assert matrix[1, 1] == pytest.approx(1.0)
    assert -1.0 <= matrix[0, 1] <= 1.0


def test_correlation_matrix_symmetric_unit_diagonal():
    # Float moments put the diagonal of the 1,000-game run at
    # 0.9999999999999999 and 1.0000000000000002; integer ones cannot.
    for count, master_seed in ((2000, 9), (1000, 1)):
        table, _ = run_ensemble(SamplerConfig(count=count, master_seed=master_seed))
        matrix = correlation_matrix(table)
        assert np.array_equal(matrix, matrix.T, equal_nan=True)
        assert (np.diag(matrix) == 1.0).all()
        finite = matrix[np.isfinite(matrix)]
        assert finite.size == 16 and (np.abs(finite) <= 1.0).all()


def _exact_correlations(patterns):
    """Squared Pearson correlations and their signs, in exact arithmetic.

    ``patterns`` holds the games per 5-bit stable pattern; an indicator
    without variance gives None.
    """
    columns = [[p >> k & 1 for p in range(32)] for k in (2, 1, 3)]
    columns.append([bin(p).count("1") for p in range(32)])
    n = sum(patterns)

    def mean(values):
        return Fraction(sum(c * x for c, x in zip(patterns, values)), n)

    def covariance(xs, ys):
        mx, my = mean(xs), mean(ys)
        return sum(c * (x - mx) * (y - my) for c, x, y in zip(patterns, xs, ys)) / n

    exact = [[None] * 4 for _ in range(4)]
    if n == 0:
        return exact
    for i, xs in enumerate(columns):
        for j, ys in enumerate(columns):
            spread = covariance(xs, xs) * covariance(ys, ys)
            if spread:
                c = covariance(xs, ys)
                exact[i][j] = (c * c / spread, (c > 0) - (c < 0))
    return exact


def _assert_within_one_ulp(matrix, exact):
    for row, exact_row in zip(matrix, exact):
        for value, entry in zip(row, exact_row):
            if entry is None:
                assert value is math.nan
                continue
            square, sign = entry
            assert (value > 0) - (value < 0) == sign
            below = math.nextafter(abs(value), 0.0)
            above = math.nextafter(abs(value), math.inf)
            assert Fraction(below) ** 2 <= square <= Fraction(above) ** 2


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(st.booleans(), min_size=5, max_size=5), max_size=40))
def test_correlation_is_the_exact_value_rounded(rows):
    # Hand-built stable tables, many with an indicator of zero variance.
    stable = np.array(rows, dtype=bool).reshape(len(rows), 5)
    patterns = np.bincount(stable @ (1 << np.arange(5)), minlength=32).tolist()
    matrix = ensemble._correlation(patterns)
    _assert_within_one_ulp(matrix, _exact_correlations(patterns))
    table = GameTable(
        indices=np.arange(len(rows), dtype=np.int64),
        params=np.full((len(rows), len(PARAMETERS)), 0.5),
        stable=stable,
        welfare=np.zeros((len(rows), len(STRATEGY_PAIRS))),
        interior=np.zeros(len(rows), dtype=bool),
        fines=(0.0, 0.0),
    )
    assert np.array_equal(correlation_matrix(table), np.array(matrix), equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(patterns=st.lists(st.integers(0, 10**15), min_size=32, max_size=32))
def test_correlation_of_huge_counts_is_the_exact_value_rounded(patterns):
    # Moments of 10**15 games per pattern pass 2**63; none may overflow.
    _assert_within_one_ulp(ensemble._correlation(patterns), _exact_correlations(patterns))


def test_correlation_of_tiny_values_keeps_its_bits():
    # E3 and E4 are independent over 4 * 10**12 games but for one game: the
    # correlation is about 2.5e-13 and keeps every bit, not the 22 that a
    # fixed 2**64 scale of the square root would keep.
    patterns = [0] * 32
    patterns[0b00000] = patterns[0b00100] = patterns[0b01000] = 10**12
    patterns[0b01100] = 10**12 + 1
    matrix = ensemble._correlation(patterns)
    _assert_within_one_ulp(matrix, _exact_correlations(patterns))
    assert 1e-13 < matrix[0][2] == matrix[2][0] < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scramble=st.booleans())
def test_permuting_rows_keeps_every_count_and_correlation(seed, scramble):
    config = SamplerConfig(count=500, master_seed=3, b_a_upper=PAPER_B_A_UPPER)
    table, _ = run_ensemble(config)
    rng = np.random.default_rng(seed)
    if scramble:
        # Random stable sets, so every stable pattern may appear.
        table = dataclasses.replace(table, stable=rng.random(table.stable.shape) < 0.5)
    order = rng.permutation(len(table))
    permuted = GameTable(
        *(getattr(table, name)[order] for name in ensemble._COLUMNS), fines=table.fines
    )
    before, after = summarize(table, config), summarize(permuted, config)
    for field in ("stable_count_distribution", "kind_counts", "kind_ratios",
                  "v_binned_kind_frequency", "param_binned_stability"):
        assert getattr(after, field) == getattr(before, field), field
    assert np.array(after.correlation).tobytes() == np.array(before.correlation).tobytes()


def test_welfare_analytics_synthetic_records():
    params = GameParams(w=0.98, c_a=0.51, c_d=0.2, b_a=0.9, b_d=0.79, v=0.26)
    records = [_record(i, params, {EquilibriumKind.E4}) for i in range(3)]
    stats = welfare_analytics(records)
    assert stats.mean_by_pair[STRATEGY_PAIRS[2]] == pytest.approx(0.59)
    assert stats.mean_by_pair[STRATEGY_PAIRS[1]] == pytest.approx(-0.59)
    # Histogram: edges are multiples of 0.1 spanning [-0.59, 0.59].
    assert stats.histogram_edges[0] == pytest.approx(-0.6)
    assert stats.histogram_edges[-1] == pytest.approx(0.6)
    assert sum(stats.histogram_counts) == 4 * len(records)
    # All games share v = 0.26: every other v bin has no mean.
    binned = stats.binned_mean["v"]
    assert binned[2] == pytest.approx(sum(
        social_welfare(params, pair) for pair in STRATEGY_PAIRS
    ) / 4)
    assert all(math.isnan(binned[i]) for i in range(10) if i != 2)


def test_single_field_reducers_equal_the_summary_fields():
    # Each gives the bits of the field summarize gives: correlation_matrix
    # computes only its field, and welfare_analytics runs the summary's one
    # reduction and keeps its welfare statistics.
    config = SamplerConfig(count=20000, master_seed=4)
    table, _ = run_ensemble(config)
    summary = summarize(table, config)
    assert np.array_equal(
        correlation_matrix(table), np.array(summary.correlation), equal_nan=True
    )
    stats, expected = welfare_analytics(table), summary.welfare_stats
    assert stats.mean_by_pair == expected.mean_by_pair
    assert stats.histogram_edges == expected.histogram_edges
    assert stats.histogram_counts == expected.histogram_counts
    assert stats.binned_mean.keys() == expected.binned_mean.keys()
    for name, means in stats.binned_mean.items():
        assert np.array_equal(means, expected.binned_mean[name], equal_nan=True), name


def test_welfare_histogram_bin_count_is_capped():
    # Attacker benefits up to 1e6 spread welfare over about a million units;
    # at width 0.1 that took about ten million bins, almost all empty.
    config = SamplerConfig(count=1500, master_seed=11, b_a_upper=1e6,
                           scenario=FineScenario(0.2, 5.0))
    table, summary = run_ensemble(config)
    stats = summary.welfare_stats
    counts, edges = stats.histogram_counts, stats.histogram_edges
    assert 10 < len(counts) <= MAX_HISTOGRAM_BINS
    assert len(edges) == len(counts) + 1
    assert sum(counts) == 4 * config.count
    widths = np.diff(edges)
    multiple = round(widths[0] / BIN_WIDTH)
    assert multiple > 1
    assert widths == pytest.approx(multiple * BIN_WIDTH)
    assert edges[0] == pytest.approx(round(edges[0] / widths[0]) * widths[0])
    # One multiple fewer would need more bins than the cap.
    narrower = (multiple - 1) * BIN_WIDTH
    low, high = float(table.welfare.min()), float(table.welfare.max())
    assert math.ceil(high / narrower) - math.floor(low / narrower) > MAX_HISTOGRAM_BINS


def test_welfare_histogram_of_one_value_has_one_bin():
    # Every sample is the same multiple of the bin width, so the grid's
    # floor and ceiling meet and it is widened to the one bin [0.0, 0.1].
    n = 3
    table = GameTable(
        indices=np.arange(n, dtype=np.int64),
        params=np.tile([REF[name] for name in PARAMETERS], (n, 1)),
        stable=np.zeros((n, len(EquilibriumKind)), dtype=bool),
        welfare=np.zeros((n, len(STRATEGY_PAIRS))),
        interior=np.zeros(n, dtype=bool),
        fines=(0.0, 0.0),
    )
    stats = welfare_analytics(table)
    assert stats.histogram_edges == (0.0, 0.1)
    assert stats.histogram_counts == (4 * n,)


def _stepped_grid(low, high):
    """The welfare grid as first written: step the multiple up until it fits."""
    multiple = 1
    while True:
        width = BIN_WIDTH * multiple
        lo = math.floor(low / width) * width
        hi = math.ceil(high / width) * width
        if hi <= lo:
            hi = lo + width
        n_bins = int(round((hi - lo) / width))
        if n_bins <= MAX_HISTOGRAM_BINS:
            return width, lo, n_bins
        multiple = max(multiple + 1, multiple * (n_bins - 2) // MAX_HISTOGRAM_BINS)


@settings(max_examples=300, deadline=None)
@given(low=st.floats(-1e9, 0.0), high=st.floats(0.0, 1e9))
def test_histogram_grid_is_the_smallest_multiple_that_fits(low, high):
    # Every ensemble's welfare range holds 0, (NoDefence, NoAttack)'s.
    assert ensemble._histogram_grid(low, high) == _stepped_grid(low, high)


def test_histogram_grid_reaches_zero():
    # A one-signed range is widened to 0, where an ensemble's range starts.
    assert ensemble._histogram_grid(5.0, 7.0) == (BIN_WIDTH, 0.0, 70)
    assert ensemble._histogram_grid(-7.0, -5.0) == (BIN_WIDTH, -7.0, 70)


def test_histogram_grid_of_a_wide_range_is_quick():
    # The stepping search took seconds here, ten times longer per decade.
    start = time.perf_counter()
    width, lo, n_bins = ensemble._histogram_grid(-1.0, 1e12)
    assert time.perf_counter() - start < 0.1
    narrower = round(width / BIN_WIDTH) - 1
    assert n_bins <= MAX_HISTOGRAM_BINS < ensemble._grid(-1.0, 1e12, narrower)[2]


@pytest.mark.parametrize("b_a_upper, fine", [(1e307, 0.0), (2.0**1020, 0.0),
                                               (1.0, 2.0**1018)])
def test_huge_ceilings_and_fines_up_to_the_bound_are_binned(b_a_upper, fine):
    # The stepping search did not return at a 1e307 ceiling.  A warning
    # (an overflow) would fail the test.
    config = SamplerConfig(count=200, b_a_upper=b_a_upper,
                           scenario=FineScenario(fine, fine))
    _, summary = run_ensemble(config)
    if b_a_upper > 1.0:
        by_b_a = summary.param_binned_stability["b_a"]
        assert sum(by_b_a) == by_b_a[-1] > 0
    counts = summary.welfare_stats.histogram_counts
    assert 10 < len(counts) <= MAX_HISTOGRAM_BINS and sum(counts) == 4 * 200
    assert all(map(math.isfinite, summary.welfare_stats.histogram_edges))


def test_welfare_means_are_finite_where_every_value_is():
    # 800 samples near 1e307 sum past 1.8e308 although no sample does.
    table, summary = run_ensemble(SamplerConfig(count=200, b_a_upper=1e307))
    stats = summary.welfare_stats
    assert np.isfinite(table.welfare).all()
    scale = 2.0**-16

    def reference(samples):
        return math.fsum(samples.ravel() * scale) / samples.size / scale

    for i, pair in enumerate(STRATEGY_PAIRS):
        mean = stats.mean_by_pair[pair]
        assert math.isfinite(mean)
        assert mean == pytest.approx(reference(table.welfare[:, i]), rel=1e-12), pair
    for name, means in stats.binned_mean.items():
        values = table.params[:, PARAMETERS.index(name)]
        for i, (low, high) in enumerate(ensemble.BIN_EDGES):
            rows = (low <= values) & ((values < high) | (i == len(means) - 1))
            if rows.any():
                assert means[i] == pytest.approx(reference(table.welfare[rows]), rel=1e-12)
            else:
                assert math.isnan(means[i])


@pytest.mark.parametrize("b_a_upper, fine", [
    (1e308, 0.0), (math.nextafter(2.0**1020, math.inf), 0.0), (1.0, 2.0**1019),
    (math.inf, 0.0), (math.nan, 0.0), (0.5, 0.0),
])
def test_ceilings_and_fines_past_the_bound_are_refused(b_a_upper, fine):
    # A 1e308 ceiling ran into an OverflowError on the welfare grid.
    with pytest.raises(ConfigError, match="b_a_upper \\+ f_s \\+ f_u"):
        SamplerConfig(count=1, b_a_upper=b_a_upper, scenario=FineScenario(fine, fine))


def test_records_digest_sensitive_to_order_and_content():
    config = SamplerConfig(count=50, master_seed=4)
    table, summary = run_ensemble(config)
    records = [_scalar_record(config, i) for i in range(config.count)]
    assert summary.records_digest == records_digest(table) == records_digest(records)
    assert records_digest(records) != records_digest(records[::-1])
    assert records_digest(records[:-1]) != records_digest(records)


def text_digest(table):
    """The records digest of earlier versions, kept as the reference.

    SHA-256 over one text line per game: index, the six drawn parameters,
    the two fines, the stable kinds, the four welfare values and the
    interior flag, floats by ``repr``.
    """
    labels = [
        ",".join(kind.value for bit, kind in enumerate(EquilibriumKind) if mask >> bit & 1)
        for mask in range(1 << len(EquilibriumKind))
    ]
    line = (
        "{}|{!r}|{!r}|{!r}|{!r}|{!r}|{!r}|"
        + "|".join(repr(value) for value in table.fines)
        + "|{}|{!r},{!r},{!r},{!r}|{:d}\n"
    )
    masks = table.stable @ (1 << np.arange(len(EquilibriumKind)))
    text = "".join(
        line.format(index, *params, labels[mask], *welfare, interior)
        for index, params, mask, welfare, interior in zip(
            table.indices.tolist(), table.params.tolist(), masks.tolist(),
            table.welfare.tolist(), table.interior.tolist(),
        )
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def test_text_digest_reproduces_the_earlier_records_digest():
    # Digests of earlier versions (repr text), and of this one (binary rows).
    for f, old, new in [
        (0.0, "3091f6b04a5f365ec836a8883ded9d433dab2b5a5f0a7d14fd83fc657ddfa420",
         "41481c373097589a49fd2c5cbeb720ff3edd7d5b1b10a96d9f9c31ca05268a9e"),
        (0.5, "ba8fec82a890ca4fe336973f089cfdd94757d654be13a8e02dd2b012d4ed01fa",
         "9a9f00aa47ad33b3f52ad632b35189944e0476424f9d2010b823bca88d917f27"),
    ]:
        config = SamplerConfig(count=200, master_seed=1, scenario=FineScenario(f, f))
        table, summary = run_ensemble(config)
        assert text_digest(table) == old
        assert summary.records_digest == records_digest(table) == new


def _set(table, column, row, col, value):
    array = getattr(table, column).copy()
    array[row, col] = value
    return dataclasses.replace(table, **{column: array})


def _perturbed_pair(table, change, row, col):
    """Two tables that differ by ``change`` at ``row`` (and ``col``)."""
    n = len(table)
    if change == "same":
        return table, dataclasses.replace(
            table, **{name: getattr(table, name).copy() for name in ensemble._COLUMNS}
        )
    if change == "param ulp":
        value = table.params[row, col % 6]
        return table, _set(table, "params", row, col % 6, np.nextafter(value, 2.0))
    if change == "welfare ulp":
        value = table.welfare[row, col % 4]
        return table, _set(table, "welfare", row, col % 4, np.nextafter(value, -np.inf))
    if change == "welfare -0.0":
        zero = _set(table, "welfare", row, col % 4, 0.0)
        return zero, _set(table, "welfare", row, col % 4, -0.0)
    if change == "fine -0.0":
        fines = list(table.fines)
        fines[col % 2] = 0.0
        zero = dataclasses.replace(table, fines=tuple(fines))
        fines[col % 2] = -0.0
        return zero, dataclasses.replace(table, fines=tuple(fines))
    if change == "rows swapped":
        order = np.arange(n)
        order[[row, (row + 1) % n]] = order[[(row + 1) % n, row]]
        return table, GameTable(
            *(getattr(table, name)[order] for name in ensemble._COLUMNS),
            fines=table.fines,
        )
    if change == "stable bit":
        return table, _set(table, "stable", row, col % 5, ~table.stable[row, col % 5])
    if change == "interior bit":
        interior = table.interior.copy()
        interior[row] = ~interior[row]
        return table, dataclasses.replace(table, interior=interior)
    if change == "fine changed":
        fines = list(table.fines)
        fines[col % 2] += 0.25
        return table, dataclasses.replace(table, fines=tuple(fines))
    assert change == "last row dropped"
    return table, GameTable(
        *(getattr(table, name)[:-1] for name in ensemble._COLUMNS), fines=table.fines
    )


@settings(max_examples=150, deadline=None)
@given(
    master_seed=st.integers(0, 2**64 - 1),
    count=st.integers(2, 40),
    fine=st.sampled_from([0.0, 0.1, 1.0]),
    change=st.sampled_from([
        "same", "param ulp", "welfare ulp", "welfare -0.0", "fine -0.0",
        "rows swapped", "stable bit", "interior bit", "fine changed",
        "last row dropped",
    ]),
    row=st.integers(0, 39),
    col=st.integers(0, 5),
)
def test_binary_digest_equal_exactly_when_text_digest_equal(
    master_seed, count, fine, change, row, col
):
    config = SamplerConfig(
        count=count, master_seed=master_seed, scenario=FineScenario(fine, fine)
    )
    table, _ = run_ensemble(config)
    a, b = _perturbed_pair(table, change, row % count, col)
    same_text = text_digest(a) == text_digest(b)
    assert same_text == (change == "same")
    assert (records_digest(a) == records_digest(b)) == same_text


def test_digest_does_not_depend_on_blocking(monkeypatch):
    configs = {
        f: SamplerConfig(count=50, master_seed=9, scenario=FineScenario(f, f))
        for f in (0.1, 0.5)
    }
    # Near the ceiling's bound the welfare sums are taken scaled by a power
    # of two, and their running sums cross every block edge.
    wide = SamplerConfig(count=50, master_seed=9, b_a_upper=1e307,
                         scenario=FineScenario(0.2, 3.0))
    runs = []
    for block_size in (1, 7, 1024):
        monkeypatch.setattr(ensemble, "BLOCK_SIZE", block_size)
        run = []
        for config in (configs[0.5], wide):
            table, summary = run_ensemble(config)
            assert summary.records_digest == records_digest(table)
            # The summary's text holds every field, the digest included.
            run.append((table, repr(summary), repr(welfare_analytics(table))))
        # The wide table's welfare sums take the scaled path.
        assert np.abs(table.welfare).max() >= 2.0**1023 / (4 * len(table))
        study = fines_study(count=50, master_seed=9, levels=(0.1, 0.5))
        for level, config in configs.items():
            assert study[level].records_digest == records_digest(run_ensemble(config)[0])
        runs.append(run)
    for run in runs[1:]:
        for (table, *texts), (first_table, *first_texts) in zip(run, runs[0]):
            assert table == first_table
            assert texts == first_texts


def test_fines_study_reuses_draws_and_validates_levels():
    summaries = fines_study(count=400, master_seed=1, levels=(0.0, 0.5))
    assert set(summaries) == {0.0, 0.5}
    base_config = SamplerConfig(count=400, master_seed=1)
    _, base_summary = run_ensemble(base_config)
    # A zero fine level and the default zero-fine scenario coincide.
    assert summaries[0.0].records_digest == base_summary.records_digest
    assert summaries[0.0].kind_counts == base_summary.kind_counts
    assert summaries[0.0].welfare_stats == base_summary.welfare_stats
    # Fines shrink the mutual-engagement region on the same games.
    assert (
        summaries[0.5].kind_counts[EquilibriumKind.E4]
        < summaries[0.0].kind_counts[EquilibriumKind.E4]
    )
    for level in (-0.1, math.inf, math.nan):
        with pytest.raises(ConfigError, match="fine level"):
            fines_study(count=10, master_seed=1, levels=(level,))
    # A repeated level would be analyzed twice and kept once.
    with pytest.raises(ConfigError, match="fine level 0.1 is repeated"):
        fines_study(count=50, master_seed=1, levels=[0.1, 0.1, 0.10])


def test_summarize_empty_free():
    config = SamplerConfig(count=1, master_seed=1)
    table, _ = run_ensemble(config)
    summary = summarize(table, config)
    assert sum(summary.stable_count_distribution.values()) == 1


def test_reducers_of_no_games():
    config = SamplerConfig(count=1, master_seed=1)
    summary = summarize([], config)
    assert set(summary.stable_count_distribution.values()) == {0}
    assert set(summary.kind_counts.values()) == {0}
    assert set(summary.kind_ratios.values()) == {0.0}
    assert all(set(curve) == {0} for curve in summary.v_binned_kind_frequency.values())
    assert all(set(bins) == {0} for bins in summary.param_binned_stability.values())
    correlation = correlation_matrix([])
    assert correlation.shape == (4, 4) and np.isnan(correlation).all()
    assert np.isnan(summary.correlation).all()
    welfare = welfare_analytics([])
    for stats in (welfare, summary.welfare_stats):
        assert all(math.isnan(mean) for mean in stats.mean_by_pair.values())
        assert stats.histogram_edges == () and stats.histogram_counts == ()
        assert all(
            math.isnan(mean) for means in stats.binned_mean.values() for mean in means
        )
    assert records_digest([]) == hashlib.sha256(b"").hexdigest()
    assert summary.records_digest == records_digest([])
    assert fines_study(count=10, master_seed=1, levels=()) == {}


@settings(max_examples=60, deadline=None)
@given(
    master_seed=st.integers(0, 2**64 - 1),
    index=st.integers(0, 10**9),
    b_a_upper=st.floats(1.0, 2.0),
    f_u=st.floats(0.0, 1.0),
    f_s=st.floats(0.0, 1.0),
)
def test_table_rows_equal_the_scalar_path(master_seed, index, b_a_upper, f_u, f_s):
    config = SamplerConfig(
        count=1, master_seed=master_seed, b_a_upper=b_a_upper,
        scenario=FineScenario(f_u=f_u, f_s=f_s),
    )
    fines = (config.scenario.f_s, config.scenario.f_u)
    table = ensemble._analyze(ensemble._draw(config, index, index + 3), fines, index)
    expected = [_scalar_record(config, i) for i in range(index, index + 3)]
    # Exact equality: parameters, stable sets and welfare bit for bit.
    assert table == GameTable.from_records(expected)
    assert records_digest(table) == records_digest(expected)


def test_table_rows_equal_the_scalar_path_for_large_brackets():
    # Far outside the sampler's range: b_a up to about 1e15 and fines up to
    # 1e12, with interior points common.
    rng = np.random.default_rng(47)
    interior = 0
    for f_s, f_u in LARGE_FINES:
        params = wide_rows(rng, 1000)
        table = ensemble._analyze(params, (f_s, f_u), 0)
        assert np.array_equal(table.params, params)  # no row was redrawn
        games = [GameParams(*row, f_s, f_u) for row in params.tolist()]
        assert table == GameTable.from_records(
            [_analyzed_record(i, game) for i, game in enumerate(games)]
        )
        interior += int(table.interior.sum())
    assert interior > 500, interior


def _generator_uniforms(master_seed, start, stop):
    """The reference: one Generator per index, as sample_game draws."""
    rows = [np.random.default_rng([master_seed, i]).random(6) for i in range(start, stop)]
    return np.array(rows).reshape(stop - start, 6)


@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("start, stop", [
    (0, 1024),  # part of a block
    (0, BLOCK_SIZE),
    (10**12, 10**12 + 8),
    # An index of 2**32 or more has one more entropy word than the index
    # before it, so these windows hold two word counts each; a two-word seed
    # with a three-word index makes five words and an extra mixing pass.
    (2**32 - 4, 2**32 + 4),
    (2**64 - 4, 2**64 + 4),
    # A full block's piece, then a 3-row piece: a buffer sized by the first
    # piece must be sliced for the second, never read stale.
    (2**32 - BLOCK_SIZE, 2**32 + 3),
])
def test_uniforms_equal_the_per_index_generators(monkeypatch, master_seed, start, stop):
    expected = _generator_uniforms(master_seed, start, stop)

    def no_generator(*args):
        raise AssertionError("_uniforms built a Generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    # Bit for bit: every value is a multiple of 2**-53 in [0, 1).
    assert np.array_equal(ensemble._uniforms(master_seed, start, stop), expected)


@settings(max_examples=40, deadline=None)
@given(
    master_seed=st.integers(0, 2**64 - 1),
    start=st.integers(0, 10**12),
    span=st.integers(1, BLOCK_SIZE),
)
def test_uniforms_equal_the_per_index_generators_anywhere(master_seed, start, span):
    assert np.array_equal(
        ensemble._uniforms(master_seed, start, start + span),
        _generator_uniforms(master_seed, start, start + span),
    )


@pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(7), np.uint32(5)])
def test_numpy_integer_seeds_draw_as_python_ints(seed):
    # SamplerConfig accepts a numpy integer seed; its entropy words are
    # those of the equal Python int.
    config = SamplerConfig(count=5, master_seed=seed)
    (table, summary), (ref_table, ref_summary) = (
        run_ensemble(c) for c in (config, dataclasses.replace(config, master_seed=int(seed)))
    )
    assert table == ref_table
    assert summary.records_digest == ref_summary.records_digest


def test_uniforms_peak_memory_per_row():
    # The draws hold 48 B per row.  Above them, PCG64 steps in place on the
    # four seeded uint64 words and six more uint64 columns, and the seeding
    # hash's uint32 columns are gone by then: no step or output may hold a
    # fresh temporary of the block.
    ensemble._uniforms(1, 0, BLOCK_SIZE)  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        uniforms = ensemble._uniforms(1, 0, BLOCK_SIZE)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert uniforms.shape == (BLOCK_SIZE, 6)
    assert peak / BLOCK_SIZE <= 150.0, peak / BLOCK_SIZE


def test_rows_failing_a_constraint_are_redrawn_by_sample_game(monkeypatch):
    config = SamplerConfig(count=5, master_seed=5)
    forced = ensemble._uniforms(5, 0, 5)
    forced[1, 1] = 0.0  # c_a = 0: sample_game rejects the uniform and draws again
    forced[3, 5] = 1.0  # v = 0: an excluded endpoint
    monkeypatch.setattr(
        ensemble, "_uniforms", lambda seed, start, stop: forced[start:stop]
    )
    calls = []

    def spy(cfg, index):
        calls.append(index)
        return sample_game(cfg, index)

    monkeypatch.setattr(ensemble, "sample_game", spy)
    table, _ = run_ensemble(config)
    assert calls == [1, 3]
    # The redrawn rows come from the true substreams, as do the others.
    assert table == GameTable.from_records([_scalar_record(config, i) for i in range(5)])

    # GameParams and the block share one constraint table: each violation
    # that GameParams names on the six drawn parameters, set between valid
    # rows in a drawn block, sends exactly its own row to sample_game, and
    # the redraw replaces the whole row.
    valid = [REF[name] for name in PARAMETERS]
    rows = [valid]
    for bad, _ in DRAWN_VIOLATIONS:
        rows += [[{**REF, **bad}[name] for name in PARAMETERS], valid]
    rows = np.array(rows)
    monkeypatch.setattr(ensemble, "_nested", lambda uniforms, upper: tuple(rows.T))
    calls.clear()

    def redraw(cfg, index):
        calls.append(index)
        return GameParams(**REF)

    monkeypatch.setattr(ensemble, "sample_game", redraw)
    params = ensemble._draw(config, 0, len(rows))
    assert calls == list(range(1, len(rows), 2))
    assert np.array_equal(params, [valid] * len(rows))


def test_a_broken_draw_is_checked_and_redrawn_once_for_every_fine_level(monkeypatch):
    # The sampler checks each drawn block once, and the fine levels share
    # its rows: one broken row is redrawn once, not once per level.
    count = BLOCK_SIZE + 5
    forced = ensemble._uniforms(5, 0, count)
    forced[BLOCK_SIZE + 2, 2] = 0.0  # c_d = 0, in the second block
    monkeypatch.setattr(
        ensemble, "_uniforms", lambda seed, start, stop: forced[start:stop]
    )
    calls, checked = [], []
    check = ensemble._valid

    def spy(cfg, index):
        calls.append(index)
        return sample_game(cfg, index)

    def valid(config, params):
        checked.append(np.ndim(params[0]))
        return check(config, params)

    monkeypatch.setattr(ensemble, "sample_game", spy)
    monkeypatch.setattr(ensemble, "_valid", valid)
    levels = (0.1, 0.5, 0.0)
    study = fines_study(count, 5, levels)
    assert calls == [BLOCK_SIZE + 2]
    assert checked.count(1) == 2  # one column check per block
    calls.clear()
    for level in levels:
        config = SamplerConfig(count, 5, FineScenario(level, level))
        table, summary = run_ensemble(config)
        assert study[level] == summary
        assert table.params[BLOCK_SIZE + 2].tolist() == list(
            sample_game(config, BLOCK_SIZE + 2).as_tuple()[:6])


def test_equal_runs_give_equal_summaries_with_an_undefined_correlation():
    # Three games leave an indicator without variance, so some correlations
    # are undefined; they are the math.nan singleton, so two equal runs
    # compare equal and not only by digest.
    config = SamplerConfig(count=3, master_seed=1)
    summary = run_ensemble(config)[1]
    entries = [x for row in summary.correlation for x in row]
    assert any(math.isnan(x) for x in entries)
    assert run_ensemble(config)[1] == summary
    assert fines_study(3, 1, (0.1,)) == fines_study(3, 1, (0.1,))
    assert all(x is math.nan for x in entries if math.isnan(x))


def test_a_negative_zero_fine_is_no_fines():
    # -0.0 is stored as 0.0, so it is not a second representation of "no
    # fines" with another digest; other values are kept as given.
    negative = FineScenario(-0.0, -0.0)
    assert math.copysign(1.0, negative.f_u) == math.copysign(1.0, negative.f_s) == 1.0
    assert negative == ZERO_FINES
    assert FineScenario(2, -0.0).f_u == 2 and type(FineScenario(2, -0.0).f_u) is int
    default = run_ensemble(SamplerConfig(count=50))[1]
    zero = run_ensemble(SamplerConfig(count=50, scenario=negative))[1]
    assert zero.records_digest == default.records_digest
    (key, level), = fines_study(50, 1, (-0.0,)).items()
    assert math.copysign(1.0, key) == 1.0
    assert level.records_digest == fines_study(50, 1, (0.0,))[0.0].records_digest


def test_corner_verdict_decides_small_gaps_and_not_an_exact_zero():
    # E4's attacker eigenvalue is -(g0 + g1) = c_a - b_a (1 - v) = c_a - 0.4:
    # a gap of 5e-10 is far above its rounding-error bound, an exact zero
    # has no sign.
    gaps = (5e-10, 9e-10, 5e-9, 0.0)
    params = np.array(
        [[0.9, 0.4 - gap, 0.2, 0.8, 0.6, 0.5] for gap in gaps]
    )
    table = ensemble._analyze(params, (0.0, 0.0), 0)
    e4 = list(EquilibriumKind).index(EquilibriumKind.E4)
    assert table.stable[:, e4].tolist() == [True, True, True, False]
    for row, stable in zip(table.params, table.stable):
        game = GameParams(*row.tolist(), *table.fines)
        kinds = stable_set(game)
        assert stable.tolist() == [kind in kinds for kind in EquilibriumKind]
    zero = GameParams(*table.params[-1].tolist(), *table.fines)
    reports = {r.kind: r.classification for r in analyze_equilibria(zero)}
    assert reports[EquilibriumKind.E4] is Classification.NON_HYPERBOLIC


def test_workers_start_no_child_process(monkeypatch):
    # Every run is serial: starting a thread or a process fails it, and the
    # workers argument changes nothing, over two full blocks and a partial one.
    def refuse(*args, **kwargs):
        raise AssertionError("a thread or a process was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(multiprocessing.Process, "start", refuse)
    count = 2 * BLOCK_SIZE + 37
    config = SamplerConfig(count=count, master_seed=6)
    tables, summaries = zip(*(run_ensemble(config, workers=w) for w in (1, 2, 3)))
    studies = [fines_study(count, 6, (0.1, 0.5), workers=w) for w in (1, 2, 3)]
    assert tables[0] == tables[1] == tables[2]
    assert summaries[0] == summaries[1] == summaries[2]  # records_digest included
    assert summaries[0].records_digest == records_digest(tables[0])
    assert studies[0] == studies[1] == studies[2]


@pytest.mark.parametrize("workers", [1, 2])
def test_runs_match_the_1024_game_blocking(monkeypatch, workers):
    # Blocks of 1,024 games were the default before; tables, summaries and
    # digests must not depend on the block size.
    count = BLOCK_SIZE + 37
    config = SamplerConfig(count=count, master_seed=4)
    levels = (0.1, 0.5)
    fine_configs = [
        SamplerConfig(count, 4, FineScenario(f, f), PAPER_B_A_UPPER) for f in levels
    ]

    def run():
        study = fines_study(count, 4, levels, workers=workers, b_a_upper=PAPER_B_A_UPPER)
        return run_ensemble(config, workers=workers), ensemble._run(fine_configs), study

    (table, summary), fine_tables, study = run()
    monkeypatch.setattr(ensemble, "BLOCK_SIZE", 1024)
    (old_table, old_summary), old_fine_tables, old_study = run()
    assert fine_tables[0].params is fine_tables[1].params  # one draw for every level
    assert old_table == table
    assert old_summary == summary  # records_digest included
    assert summary.records_digest == records_digest(table)
    assert old_fine_tables == fine_tables
    assert old_study == study
    assert [study[f].records_digest for f in levels] == [
        records_digest(t) for t in fine_tables
    ]


def test_game_table_round_trips_from_records():
    config = SamplerConfig(count=40, master_seed=3)
    table, summary = run_ensemble(config)
    records = [_scalar_record(config, i) for i in range(config.count)]
    assert GameTable.from_records(records) == table
    assert GameTable.from_records(table) is table
    assert summarize(records, config) == summarize(table, config)
    # Records only go in: a table compares with tables and has no rows.
    assert table != records
    with pytest.raises(TypeError):
        table[0]
    with pytest.raises(ConfigError, match="fines"):
        GameTable.from_records([records[0], GameRecord(
            0, FineScenario(0.1, 0.1).apply(records[0].params),
            frozenset(), records[0].welfare, False,
        )])


def test_game_table_retained_size_per_game():
    # A block's tables hold only their columns, no per-row objects or text.
    params = ensemble._draw(SamplerConfig(count=1), 0, BLOCK_SIZE)
    tables = [ensemble._analyze(params, (f, f), 0) for f in (0.0, 0.5)]
    columns = sum(
        getattr(table, name).nbytes for table in tables for name in ensemble._COLUMNS
    )
    assert columns == 2 * BLOCK_SIZE * 94

    config = SamplerConfig(count=20_000, master_seed=1)
    run_ensemble(SamplerConfig(count=10, master_seed=1))  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = run_ensemble(config)[0]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == config.count
    assert retained / config.count <= 100.0, retained / config.count


@pytest.mark.parametrize("call, bound", [
    (lambda n: run_ensemble(SamplerConfig(count=n, master_seed=1)), 150.0),
    (lambda n: fines_study(n, 1, (0.1, 0.5)), 200.0),
], ids=["run_ensemble", "fines_study-two-levels"])
def test_run_peak_memory_per_game(call, bound):
    # A run holds its table (94 B per game; a fine level adds 46 B, as the
    # levels share one parameter array) and, at its peak, the temporaries of
    # one block: the summary reduces the table BLOCK_SIZE rows at a time, so
    # no temporary of the whole table's welfare samples, bins or block
    # tables may be held beside it.
    count = 50_000
    call(10)  # warm caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call(count)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert result
    assert peak / count <= bound, peak / count
