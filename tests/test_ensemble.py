"""Seeded sampling, parallel determinism, and ensemble aggregates."""

import gc
import math
import tracemalloc

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
    records_digest,
    summarize,
)
from cyberevo.game import PARAMETERS

from test_game import DRAWN_VIOLATIONS, LARGE_FINES, REF, wide_rows


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
    with pytest.raises(ConfigError, match="workers"):
        run_ensemble(config, workers=0)


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
    config = SamplerConfig(count=2000, master_seed=9)
    table, _ = run_ensemble(config)
    matrix = correlation_matrix(table)
    assert np.allclose(matrix, matrix.T, equal_nan=True)
    assert np.allclose(np.diag(matrix), 1.0)
    finite = matrix[np.isfinite(matrix)]
    assert ((-1.0 - 1e-12 <= finite) & (finite <= 1.0 + 1e-12)).all()


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
    # Each computes only the field it returns, with the bits summarize gives.
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


def test_records_digest_sensitive_to_order_and_content():
    config = SamplerConfig(count=50, master_seed=4)
    table, summary = run_ensemble(config)
    records = [_scalar_record(config, i) for i in range(config.count)]
    assert summary.records_digest == records_digest(table) == records_digest(records)
    assert records_digest(records) != records_digest(records[::-1])
    assert records_digest(records[:-1]) != records_digest(records)


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
    ((table, text),) = ensemble._analyze_block([config], index, index + 3)
    expected = [_scalar_record(config, i) for i in range(index, index + 3)]
    # Exact equality: parameters, stable sets and welfare bit for bit.
    assert table == GameTable.from_records(expected)
    assert records_digest(table) == records_digest(expected)


def test_table_rows_equal_the_scalar_path_for_large_brackets():
    # Far outside the sampler's range: b_a up to about 1e15 and fines up to
    # 1e12, with interior points common and E5 traces that round to below
    # -2 epsilon, the rows that go through the scalar classifier.
    rng = np.random.default_rng(47)
    interior = scalar_e5 = 0
    for f_s, f_u in LARGE_FINES:
        config = SamplerConfig(
            count=1, b_a_upper=2e15, scenario=FineScenario(f_u=f_u, f_s=f_s)
        )
        params = wide_rows(rng, 1000)
        table = ensemble._analyze(config, params, 0)
        assert np.array_equal(table.params, params)  # no row was redrawn
        games = [GameParams(*row, f_s, f_u) for row in params.tolist()]
        assert table == GameTable.from_records(
            [_analyzed_record(i, game) for i, game in enumerate(games)]
        )
        interior += int(table.interior.sum())
        scalar_e5 += sum(
            analyze_equilibria(games[row])[-1].jacobian.trace <= -2e-9
            for row in np.flatnonzero(table.interior).tolist()
        )
    assert interior > 500 and scalar_e5 > 0, (interior, scalar_e5)


def _generator_uniforms(master_seed, start, stop):
    """The reference: one Generator per index, as sample_game draws."""
    rows = [np.random.default_rng([master_seed, i]).random(6) for i in range(start, stop)]
    return np.array(rows).reshape(stop - start, 6)


@pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("start, stop", [
    (0, BLOCK_SIZE),
    (10**12, 10**12 + 8),
    # An index of 2**32 or more has one more entropy word than the index
    # before it, so these windows hold two word counts each; a two-word seed
    # with a three-word index makes five words and an extra mixing pass.
    (2**32 - 4, 2**32 + 4),
    (2**64 - 4, 2**64 + 4),
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
    # rows, sends exactly its own row to sample_game.
    valid = [REF[name] for name in PARAMETERS]
    rows = [valid]
    for bad, _ in DRAWN_VIOLATIONS:
        rows += [[{**REF, **bad}[name] for name in PARAMETERS], valid]
    calls.clear()
    ensemble._analyze(config, np.array(rows), 0)
    assert calls == list(range(1, len(rows), 2))


def test_corner_within_epsilon_of_zero_is_not_stable():
    # E4's attacker eigenvalue is -(g0 + g1) = c_a - b_a (1 - v) = c_a - 0.4.
    config = SamplerConfig(count=3)
    gaps = (5e-10, 9e-10, 5e-9)
    params = np.array(
        [[0.9, 0.4 - gap, 0.2, 0.8, 0.6, 0.5] for gap in gaps]
    )
    table = ensemble._analyze(config, params, 0)
    e4 = list(EquilibriumKind).index(EquilibriumKind.E4)
    assert table.stable[:, e4].tolist() == [False, False, True]
    for row, stable in zip(table.params, table.stable):
        game = GameParams(*row.tolist(), *table.fines)
        kinds = stable_set(game)
        assert stable.tolist() == [kind in kinds for kind in EquilibriumKind]
        reports = {r.kind: r.classification for r in analyze_equilibria(game)}
        if EquilibriumKind.E4 not in kinds:
            assert reports[EquilibriumKind.E4] is Classification.NON_HYPERBOLIC


def test_worker_count_invariant_across_partial_blocks():
    config = SamplerConfig(count=2 * BLOCK_SIZE + 37, master_seed=6)
    tables, summaries = zip(*(run_ensemble(config, workers=w) for w in (1, 2, 3)))
    assert summaries[0] == summaries[1] == summaries[2]
    assert tables[0] == tables[1] == tables[2]
    assert summaries[0].records_digest == records_digest(tables[0])


def test_pool_forks_no_more_workers_than_blocks(monkeypatch):
    # A stand-in pool that maps in this process, so no process is started.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", InProcessPool)
    config = SamplerConfig(count=2 * BLOCK_SIZE, master_seed=6)
    _, summary = run_ensemble(config, workers=8)
    assert sizes == [2]
    monkeypatch.undo()
    assert summary == run_ensemble(config, workers=1)[1]


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
