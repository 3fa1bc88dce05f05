"""Finite-population simulation: validation, determinism, limit behavior,
bookkeeping, the per-seed stream, the move table's memory bound, and
agreement in distribution with the exact Markov chain."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyberevo import (
    AbmConfig,
    AbmResult,
    ConfigError,
    GameParams,
    PopulationState,
    field_coefficients,
    simulate,
)
from cyberevo import abm
from cyberevo.abm import _DRAW_BLOCK, _MAX_SAMPLES, _MOVE_TABLE_LIMIT

from test_game import REF

PARAMS = GameParams(**REF)

#: Uniform draws per population per step, and steps per pregenerated block,
#: of the step-by-step reference kernel.
_DRAWS_PER_STEP = 5
_BLOCK = 65536


def _logistic(x: float) -> float:
    # Overflow-safe 1 / (1 + exp(-x)), evaluated on its own at each call.
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _move_rates(
    count: int, n_agents: int, advantage: float, sel: float, mut: float
) -> tuple[float, float]:
    """One population's up- and down-move probabilities in a step, with
    both logistics evaluated afresh."""
    share = count / n_agents
    meet = (1.0 - mut) / (n_agents - 1)
    up = (1.0 - share) * (0.5 * mut + meet * count * _logistic(sel * advantage))
    down = share * (0.5 * mut + meet * (n_agents - count) * _logistic(-sel * advantage))
    return up, down


def stepwise_simulate(params: GameParams, config: AbmConfig) -> AbmResult:
    """Reference kernel: the imitation process simulated one step at a time.

    Each step draws five uniforms per population (focal, mutation, mutant
    strategy, peer, imitation) and applies them literally.  It samples the
    same Markov chain as :func:`simulate` from a different random stream.
    """
    k0, k1, g0, g1 = field_coefficients(params)
    n_agents = config.population_size
    sel = config.selection_strength
    mut = config.mutation_rate
    rng = np.random.default_rng(config.seed)
    n_defending = round(config.initial_state.beta * n_agents)
    n_attacking = round(config.initial_state.alpha * n_agents)

    stride = max(1, config.steps // _MAX_SAMPLES)
    trajectory = [(0, n_defending / n_agents, n_attacking / n_agents)]
    sum_beta = 0
    sum_alpha = 0
    events = 0
    tally_steps = config.steps - config.burn_in

    step = 0
    while step < config.steps:
        block = min(_BLOCK, config.steps - step)
        draws = rng.uniform(size=(block, 2, _DRAWS_PER_STEP))
        for row in range(block):
            step += 1
            nd0 = n_defending
            na0 = n_attacking
            # Defender focal against the attackers' current mixture.
            u_focal, u_mut, u_strat, u_peer, u_imit = draws[row, 0]
            focal = 1 if u_focal < nd0 / n_agents else 0
            if u_mut < mut:
                new = 1 if u_strat < 0.5 else 0
                n_defending += new - focal
            else:
                peer = 1 if u_peer < (nd0 - focal) / (n_agents - 1) else 0
                if peer != focal:
                    advantage = k0 + k1 * (na0 / n_agents)
                    gap = advantage if peer == 1 else -advantage
                    if u_imit < _logistic(sel * gap):
                        n_defending += peer - focal
            # Attacker focal against the defenders' start-of-step mixture.
            u_focal, u_mut, u_strat, u_peer, u_imit = draws[row, 1]
            focal = 1 if u_focal < na0 / n_agents else 0
            if u_mut < mut:
                new = 1 if u_strat < 0.5 else 0
                n_attacking += new - focal
            else:
                peer = 1 if u_peer < (na0 - focal) / (n_agents - 1) else 0
                if peer != focal:
                    advantage = g0 + g1 * (nd0 / n_agents)
                    gap = advantage if peer == 1 else -advantage
                    if u_imit < _logistic(sel * gap):
                        n_attacking += peer - focal
            if (n_defending, n_attacking) != (nd0, na0):
                events += 1
            if step > config.burn_in:
                sum_beta += n_defending
                sum_alpha += n_attacking
            if step % stride == 0:
                trajectory.append(
                    (step, n_defending / n_agents, n_attacking / n_agents)
                )
    if trajectory[-1][0] != config.steps:
        trajectory.append(
            (config.steps, n_defending / n_agents, n_attacking / n_agents)
        )
    return AbmResult(
        mean_beta=sum_beta / (tally_steps * n_agents),
        mean_alpha=sum_alpha / (tally_steps * n_agents),
        trajectory_thinned=tuple(trajectory),
        events=events,
    )


def event_reference(params: GameParams, config: AbmConfig) -> AbmResult:
    """Reference for :func:`simulate`'s per-seed stream: the same event loop
    with no move table, recomputing both populations' move rates at every
    event and drawing its four uniforms with one ``rng.random(4)`` call."""
    k0, k1, g0, g1 = field_coefficients(params)
    n_agents = config.population_size
    steps = config.steps
    burn_in = config.burn_in
    sel = config.selection_strength
    mut = config.mutation_rate
    rng = np.random.default_rng(config.seed)
    n_defending = round(config.initial_state.beta * n_agents)
    n_attacking = round(config.initial_state.alpha * n_agents)

    stride = max(1, steps // _MAX_SAMPLES)
    trajectory = [(0, n_defending / n_agents, n_attacking / n_agents)]
    next_row = stride
    sum_beta = 0
    sum_alpha = 0
    events = 0

    step = 0
    while True:
        up_d, down_d = _move_rates(
            n_defending, n_agents, k0 + k1 * (n_attacking / n_agents), sel, mut
        )
        up_a, down_a = _move_rates(
            n_attacking, n_agents, g0 + g1 * (n_defending / n_agents), sel, mut
        )
        p_d = up_d + down_d
        p_a = up_a + down_a
        p_move = p_d + p_a - p_d * p_a
        if p_move > 0.0:
            u_run, u_side, u_d, u_a = rng.random(4).tolist()
            nulls = math.log1p(-u_run) / math.log1p(-p_move)
        else:
            nulls = math.inf
        event = step + 1 + int(nulls) if nulls < steps - step else steps + 1
        held = event - max(step, burn_in + 1)
        if held > 0:
            sum_beta += held * n_defending
            sum_alpha += held * n_attacking
        while next_row < event:
            trajectory.append((next_row, n_defending / n_agents, n_attacking / n_agents))
            next_row += stride
        if event > steps:
            break
        if u_side < p_d / p_move:
            n_defending += 1 if u_d < up_d / p_d else -1
            if u_a < up_a:
                n_attacking += 1
            elif u_a < p_a:
                n_attacking -= 1
        else:
            n_attacking += 1 if u_a < up_a / p_a else -1
        events += 1
        step = event

    if trajectory[-1][0] != steps:
        trajectory.append((steps, n_defending / n_agents, n_attacking / n_agents))
    tally_steps = steps - burn_in
    return AbmResult(
        mean_beta=sum_beta / (tally_steps * n_agents),
        mean_alpha=sum_alpha / (tally_steps * n_agents),
        trajectory_thinned=tuple(trajectory),
        events=events,
    )


def count_table_fills(monkeypatch, calls=None):
    """Count :func:`simulate`'s move-table fills: each calls
    ``abm._move_rates`` once per population, defenders first.  Each call's
    arguments go to ``calls`` if given."""
    calls = [] if calls is None else calls
    move_rates = abm._move_rates

    def counted(*args):
        calls.append(args)
        return move_rates(*args)

    monkeypatch.setattr(abm, "_move_rates", counted)
    return lambda: len(calls) // 2


def exact_means(params: GameParams, config: AbmConfig) -> tuple[float, float]:
    """Expected post-burn-in means, by propagating the start state through
    the (N+1)^2-state transition matrix of the imitation chain."""
    k0, k1, g0, g1 = field_coefficients(params)
    size = config.population_size
    sel = config.selection_strength
    mut = config.mutation_rate

    def one_side(count, advantage):
        # {next count: probability} for one population, closed form.
        imitate = 1.0 / (1.0 + math.exp(-sel * advantage))
        up = (size - count) / size * (
            mut / 2 + (1 - mut) * count / (size - 1) * imitate)
        down = count / size * (
            mut / 2 + (1 - mut) * (size - count) / (size - 1) * (1 - imitate))
        return {count + 1: up, count - 1: down, count: 1.0 - up - down}

    states = size + 1
    matrix = np.zeros((states, states, states, states))
    for nd in range(states):
        for na in range(states):
            defenders = one_side(nd, k0 + k1 * na / size)
            attackers = one_side(na, g0 + g1 * nd / size)
            for nd_next, p_d in defenders.items():
                for na_next, p_a in attackers.items():
                    if p_d > 0.0 and p_a > 0.0:
                        matrix[nd, na, nd_next, na_next] += p_d * p_a
    matrix = matrix.reshape(states * states, states * states)
    assert np.allclose(matrix.sum(axis=1), 1.0)

    dist = np.zeros(states * states)
    nd0 = round(config.initial_state.beta * size)
    na0 = round(config.initial_state.alpha * size)
    dist[nd0 * states + na0] = 1.0
    occupancy = np.zeros(states * states)
    for step in range(1, config.steps + 1):
        dist = dist @ matrix
        if step > config.burn_in:
            occupancy += dist
    occupancy = occupancy.reshape(states, states) / (config.steps - config.burn_in)
    counts = np.arange(states)
    return (
        float(occupancy.sum(axis=1) @ counts) / size,
        float(occupancy.sum(axis=0) @ counts) / size,
    )


def test_config_validation():
    AbmConfig(population_size=2, steps=10, burn_in=0)
    config = AbmConfig(population_size=np.int64(10), steps=np.int32(100),
                       burn_in=np.uint16(10), seed=np.uint64(2**63 + 1))
    assert simulate(PARAMS, config) == simulate(
        PARAMS, AbmConfig(population_size=10, steps=100, burn_in=10, seed=2**63 + 1))
    with pytest.raises(ConfigError, match="population_size"):
        AbmConfig(population_size=1)
    for strength in (-1.0, math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ConfigError, match="selection_strength"):
            AbmConfig(selection_strength=strength)
    with pytest.raises(ConfigError, match="mutation_rate"):
        AbmConfig(mutation_rate=1.5)
    with pytest.raises(ConfigError, match="steps"):
        AbmConfig(steps=0)
    with pytest.raises(ConfigError, match="burn_in"):
        AbmConfig(steps=100, burn_in=100)
    with pytest.raises(ConfigError, match="seed"):
        AbmConfig(seed=-2)
    for field, value in [
        ("population_size", 10.5), ("population_size", 10.0),
        ("population_size", True), ("steps", 100.5), ("steps", 100.0),
        ("burn_in", 1.5), ("burn_in", False), ("seed", True), ("seed", 1.5),
        ("seed", "1"),
    ]:
        settings = {"population_size": 10, "steps": 100, "burn_in": 0, field: value}
        with pytest.raises(ConfigError, match=field):
            AbmConfig(**settings)
    # Real fields take a real number and no bool; the start, a PopulationState.
    AbmConfig(selection_strength=np.float32(2.0), mutation_rate=0)
    for field, value in [
        ("selection_strength", "10"), ("selection_strength", True),
        ("selection_strength", None), ("mutation_rate", "0.1"),
        ("mutation_rate", None), ("mutation_rate", False),
        ("initial_state", (0.5, 0.5)), ("initial_state", None),
    ]:
        with pytest.raises(ConfigError, match=field):
            AbmConfig(**{field: value})


def test_deterministic_per_seed():
    config = AbmConfig(population_size=100, steps=30000, burn_in=1000, seed=11)
    first = simulate(PARAMS, config)
    second = simulate(PARAMS, config)
    assert first == second
    other = simulate(
        PARAMS, AbmConfig(population_size=100, steps=30000, burn_in=1000, seed=12)
    )
    assert (first.mean_beta, first.mean_alpha) != (other.mean_beta, other.mean_alpha)
    assert 0 < first.events <= config.steps


def test_monomorphic_state_absorbing_without_mutation():
    # Every focal can only meet a peer of its own strategy, so with zero
    # mutation the corner never moves.
    config = AbmConfig(
        population_size=200,
        mutation_rate=0.0,
        steps=50000,
        burn_in=0,
        seed=3,
        initial_state=PopulationState(1.0, 0.0),
    )
    result = simulate(PARAMS, config)
    assert result.mean_beta == 1.0
    assert result.mean_alpha == 0.0
    assert result.events == 0
    assert all(beta == 1.0 and alpha == 0.0
               for _, beta, alpha in result.trajectory_thinned)


def test_held_corner_bookkeeping_across_burn_in_and_partial_stride():
    # One null run covers the whole run: it crosses burn_in, and the stride
    # (30) does not divide the step count, so the last row is the extra one.
    config = AbmConfig(
        population_size=50,
        mutation_rate=0.0,
        steps=30001,
        burn_in=7777,
        seed=4,
        initial_state=PopulationState(0.0, 1.0),
    )
    result = simulate(PARAMS, config)
    assert result == stepwise_simulate(PARAMS, config)
    assert result.events == 0
    assert (result.mean_beta, result.mean_alpha) == (0.0, 1.0)
    assert [step for step, _, _ in result.trajectory_thinned] == [
        *range(0, 30001, 30), 30001]


def test_sums_and_events_follow_the_recorded_path():
    # Below 1,000 steps every step is recorded, so the post-burn-in sums and
    # the event count can be recomputed from the trajectory; null runs here
    # often cross burn_in.
    config = AbmConfig(population_size=10, selection_strength=2.0,
                       mutation_rate=0.02, steps=999, burn_in=400, seed=6)
    result = simulate(PARAMS, config)
    rows = result.trajectory_thinned
    assert [step for step, _, _ in rows] == list(range(1000))
    tally = config.steps - config.burn_in
    assert result.mean_beta == sum(
        round(beta * 10) for _, beta, _ in rows[401:]) / (tally * 10)
    assert result.mean_alpha == sum(
        round(alpha * 10) for _, _, alpha in rows[401:]) / (tally * 10)
    changes = sum(a[1:] != b[1:] for a, b in zip(rows, rows[1:]))
    assert result.events == changes
    assert 0 < result.events < config.steps


@pytest.mark.parametrize("kernel", [simulate, stepwise_simulate],
                         ids=["event", "stepwise"])
@pytest.mark.parametrize("config", [
    # Near-stationary: light mutation, burn-in, long averaging window.
    AbmConfig(population_size=10, selection_strength=3.0, mutation_rate=0.05,
              steps=2000, burn_in=500, initial_state=PopulationState(0.2, 0.3)),
    # Transient from a corner, where both populations often move in the same
    # step: the means follow the per-step move probabilities to first order.
    AbmConfig(population_size=10, selection_strength=3.0, mutation_rate=0.5,
              steps=40, burn_in=0, initial_state=PopulationState(0.0, 0.0)),
], ids=["stationary", "transient"])
def test_means_match_exact_chain(kernel, config):
    expected = exact_means(PARAMS, config)
    seeds = 300
    means = np.array([
        (result.mean_beta, result.mean_alpha)
        for result in (kernel(PARAMS, replace(config, seed=seed)) for seed in range(seeds))
    ])
    standard_error = means.std(axis=0, ddof=1) / math.sqrt(seeds)
    assert np.all(standard_error > 0.0)
    assert np.all(np.abs(means.mean(axis=0) - expected) < 4 * standard_error), (
        means.mean(axis=0), expected, standard_error)


def test_pure_mutation_drives_frequencies_to_half():
    config = AbmConfig(
        population_size=200,
        selection_strength=0.0,
        mutation_rate=1.0,
        steps=200000,
        burn_in=20000,
        seed=3,
    )
    result = simulate(PARAMS, config)
    assert result.mean_beta == pytest.approx(0.5, abs=0.05)
    assert result.mean_alpha == pytest.approx(0.5, abs=0.05)


def test_selection_tracks_unique_stable_corner():
    config = AbmConfig(
        population_size=500, steps=150000, burn_in=50000, seed=1
    )
    result = simulate(PARAMS, config)
    assert result.mean_beta == pytest.approx(1.0, abs=0.05)
    assert result.mean_alpha == pytest.approx(1.0, abs=0.05)


def test_trajectory_thinning_bounds():
    config = AbmConfig(population_size=50, steps=30000, burn_in=100, seed=2)
    result = simulate(PARAMS, config)
    assert len(result.trajectory_thinned) <= 1001
    steps = [step for step, _, _ in result.trajectory_thinned]
    assert steps[0] == 0
    assert steps[-1] == config.steps
    assert steps == sorted(steps)
    for _, beta, alpha in result.trajectory_thinned:
        assert 0.0 <= beta <= 1.0
        assert 0.0 <= alpha <= 1.0


def test_short_run_trajectory_records_every_step():
    config = AbmConfig(population_size=10, steps=25, burn_in=0, seed=5)
    result = simulate(PARAMS, config)
    assert [step for step, _, _ in result.trajectory_thinned] == list(range(26))


@pytest.mark.parametrize("config, premise", [
    # Well over one draw block of events.
    pytest.param(
        AbmConfig(population_size=100, selection_strength=2.0, mutation_rate=0.02,
                  steps=30000, burn_in=1000, seed=11),
        lambda result, fills: result.events > 4 * _DRAW_BLOCK, id="blocks"),
    # Pure mutation wanders over about 7,200 states, so the table is
    # emptied mid-run.
    pytest.param(
        AbmConfig(population_size=10_000, selection_strength=0.0, mutation_rate=1.0,
                  steps=30000, burn_in=0, seed=7),
        lambda result, fills: fills > _MOVE_TABLE_LIMIT, id="refills"),
    # Selection with heavy mutation wanders over about 6,700 states, so the
    # table and both imitation caches are emptied mid-run.
    pytest.param(
        AbmConfig(population_size=10_000, selection_strength=5.0, mutation_rate=0.2,
                  steps=20000, burn_in=0, seed=7),
        lambda result, fills: fills > _MOVE_TABLE_LIMIT, id="refills-selection"),
    # p = 0 at a corner without mutation: nothing is drawn.
    pytest.param(
        AbmConfig(population_size=200, mutation_rate=0.0, steps=50000, burn_in=10,
                  seed=3, initial_state=PopulationState(0.0, 1.0)),
        lambda result, fills: fills == 1 and result.events == 0, id="still"),
    pytest.param(
        AbmConfig(population_size=2, steps=10, burn_in=0),
        lambda result, fills: result.events > 0, id="n2"),
    pytest.param(
        AbmConfig(population_size=2, selection_strength=0.0, mutation_rate=1.0,
                  steps=5000, burn_in=2500),
        lambda result, fills: result.events > 0, id="n2-mutation"),
    pytest.param(
        AbmConfig(population_size=50, steps=20000, burn_in=5000, seed=2**64 - 1,
                  initial_state=PopulationState(0.1, 0.9)),
        lambda result, fills: result.events > 0, id="top-seed"),
])
def test_simulate_keeps_the_per_event_stream(monkeypatch, config, premise):
    fills = count_table_fills(monkeypatch)
    result = simulate(PARAMS, config)
    assert result == event_reference(PARAMS, config)
    assert premise(result, fills())


_EDGE = st.sampled_from([0.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    population_size=st.integers(2, 2000),
    selection_strength=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    mutation_rate=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    steps=st.integers(1, 100_000),
    burn_in_share=st.floats(0.0, 1.0, exclude_max=True),
    seed=st.integers(0, 2**64 - 1),
    start=st.one_of(
        st.tuples(_EDGE, _EDGE),
        st.tuples(_EDGE, st.floats(0.0, 1.0)),
        st.tuples(st.floats(0.0, 1.0), _EDGE),
    ),
)
def test_simulate_keeps_the_per_event_stream_anywhere(
    population_size, selection_strength, mutation_rate, steps, burn_in_share,
    seed, start,
):
    config = AbmConfig(
        population_size=population_size,
        selection_strength=selection_strength,
        mutation_rate=mutation_rate,
        steps=steps,
        burn_in=int(burn_in_share * steps),
        seed=seed,
        initial_state=PopulationState(*start),
    )
    assert simulate(PARAMS, config) == event_reference(PARAMS, config)


def test_table_fills_share_each_exp(monkeypatch):
    # A population's imitation pair depends only on the opposite count, so
    # between two table clears each population makes at most one exp per
    # distinct opposite count (the defenders' pairs are keyed by the attacker
    # counts the fills saw, the attackers' by the defender counts); a fill
    # for a new state usually makes none, where evaluating both logistics
    # of both populations makes four.
    config = AbmConfig(population_size=1000)
    calls = []
    fills = count_table_fills(monkeypatch, calls)
    exp = math.exp
    exps = []

    def counted(x):
        # A fill's exps come before its two move-rate calls.
        exps.append(fills() // _MOVE_TABLE_LIMIT)
        return exp(x)

    monkeypatch.setattr(math, "exp", counted)
    result = simulate(PARAMS, config)
    monkeypatch.undo()
    assert result == event_reference(PARAMS, config)
    assert fills() > 500
    for clear in range(fills() // _MOVE_TABLE_LIMIT + 1):
        epoch = calls[2 * clear * _MOVE_TABLE_LIMIT:2 * (clear + 1) * _MOVE_TABLE_LIMIT]
        defenders = {args[0] for args in epoch[0::2]}
        attackers = {args[0] for args in epoch[1::2]}
        assert exps.count(clear) <= len(defenders) + len(attackers)
    assert len(exps) < 1.2 * fills(), (len(exps), fills())


def test_move_table_memory_is_bounded(monkeypatch):
    # Strong selection at N = 100,000 drifts from the centre towards the
    # stable corner and rarely revisits a state: about 12,700 states in
    # 13,000 events, three table limits.  Unbounded, the table and the
    # imitation caches would peak near 6.4 MB here; bounded, about 1.9 MB.
    config = AbmConfig(population_size=100_000, steps=30000, burn_in=0)
    fills = count_table_fills(monkeypatch)
    expected = simulate(PARAMS, config)
    assert fills() > 3 * _MOVE_TABLE_LIMIT
    monkeypatch.undo()
    tracemalloc.start()
    try:
        result = simulate(PARAMS, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == expected
    assert peak < 3_000_000, peak
