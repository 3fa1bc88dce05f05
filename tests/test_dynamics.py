"""Selection field, fixed-step integrator, grids, and the batch integrator."""

import math

import numpy as np
import pytest

from cyberevo import (
    GameParams,
    IntegrationError,
    ParameterError,
    PopulationState,
    batch_final_states,
    field_coefficients,
    field_grid,
    fitness_profile,
    integrate,
    replicator_field,
    stable_set,
)

from test_game import REF, random_params


def test_population_state_validated():
    PopulationState(0.0, 1.0)
    with pytest.raises(ParameterError):
        PopulationState(-0.01, 0.5)
    with pytest.raises(ParameterError):
        PopulationState(0.5, 1.01)
    with pytest.raises(ParameterError):
        PopulationState(math.nan, 0.5)


def test_field_coefficients_reference_values():
    k0, k1, g0, g1 = field_coefficients(GameParams(**REF))
    assert k0 == pytest.approx(0.59, abs=1e-12)
    assert k1 == pytest.approx(0.26 * 0.79 - 0.79 + 0.26 * 0.98, abs=1e-12)
    assert g0 == pytest.approx(0.39, abs=1e-12)
    assert g1 == pytest.approx(-0.26 * 0.90, abs=1e-12)


def test_field_vanishes_at_corners():
    rng = np.random.default_rng(30)
    for _ in range(100):
        params = random_params(rng, with_fines=True)
        for beta in (0.0, 1.0):
            for alpha in (0.0, 1.0):
                value = replicator_field(params, PopulationState(beta, alpha))
                assert value.d_beta == 0.0
                assert value.d_alpha == 0.0


def test_field_equals_frequency_times_fitness_gap():
    # d_beta = beta (1 - beta) (f_defence - f_no_defence), and likewise for
    # the attacker side; the field must agree with the fitness layer.
    rng = np.random.default_rng(31)
    for _ in range(300):
        params = random_params(rng, with_fines=True)
        state = PopulationState(rng.uniform(), rng.uniform())
        value = replicator_field(params, state)
        prof = fitness_profile(params, state)
        beta, alpha = state.beta, state.alpha
        assert value.d_beta == pytest.approx(
            beta * (1 - beta) * (prof.f_defence - prof.f_no_defence), abs=1e-12
        )
        assert value.d_alpha == pytest.approx(
            alpha * (1 - alpha) * (prof.f_attack - prof.f_no_attack), abs=1e-12
        )
        assert value.d_beta == pytest.approx(
            beta * (prof.f_defence - prof.mean_defender), abs=1e-12
        )
        assert value.d_alpha == pytest.approx(
            alpha * (prof.f_attack - prof.mean_attacker), abs=1e-12
        )


def test_integrator_matches_logistic_closed_form():
    # On the alpha = 0 edge the defender equation decouples into a logistic
    # ODE with rate b_d - c_d, giving an exact solution to test against.
    params = GameParams(**REF)
    k0 = params.b_d - params.c_d
    b0, t = 0.2, 10.0
    exact = b0 * math.exp(k0 * t) / (1.0 - b0 + b0 * math.exp(k0 * t))
    trajectory = integrate(
        params, PopulationState(b0, 0.0), step=0.01, horizon=t, convergence_tol=0.0
    )
    assert trajectory.final_state.alpha == 0.0
    assert trajectory.final_state.beta == pytest.approx(exact, abs=1e-10)


def test_integrator_converges_to_stable_corner():
    params = GameParams(**REF)
    trajectory = integrate(params, PopulationState(0.1, 0.1))
    assert trajectory.converged
    assert trajectory.final_state.beta == pytest.approx(1.0, abs=1e-6)
    assert trajectory.final_state.alpha == pytest.approx(1.0, abs=1e-6)


def test_bistable_game_splits_by_start():
    # With stable corners at (0,1) and (1,0), opposite starts reach
    # opposite corners.
    params = GameParams(w=0.98, c_a=0.69, c_d=0.54, b_a=0.79, b_d=0.72, v=0.15)
    assert {k.value for k in stable_set(params)} == {"E2", "E3"}
    to_attack = integrate(params, PopulationState(0.05, 0.95))
    to_defence = integrate(params, PopulationState(0.95, 0.05))
    assert (to_attack.final_state.beta, to_attack.final_state.alpha) == \
        pytest.approx((0.0, 1.0), abs=1e-6)
    assert (to_defence.final_state.beta, to_defence.final_state.alpha) == \
        pytest.approx((1.0, 0.0), abs=1e-6)


def test_trajectory_stays_in_unit_square():
    rng = np.random.default_rng(32)
    for _ in range(20):
        params = random_params(rng)
        start = PopulationState(rng.uniform(), rng.uniform())
        trajectory = integrate(params, start, horizon=50.0)
        for _, state in trajectory.samples:
            assert 0.0 <= state.beta <= 1.0
            assert 0.0 <= state.alpha <= 1.0


def test_record_stride_thins_samples():
    params = GameParams(**REF)
    full = integrate(params, PopulationState(0.3, 0.3), horizon=5.0,
                     convergence_tol=0.0)
    thin = integrate(params, PopulationState(0.3, 0.3), horizon=5.0,
                     convergence_tol=0.0, record_stride=100)
    assert len(full.samples) == 501
    assert len(thin.samples) == 6
    assert thin.samples[0][0] == 0.0
    assert thin.samples[-1][0] == 5.0
    assert thin.final_state == full.final_state


def test_integrator_argument_validation():
    params = GameParams(**REF)
    start = PopulationState(0.5, 0.5)
    with pytest.raises(ParameterError, match="step > 0"):
        integrate(params, start, step=0.0)
    with pytest.raises(ParameterError, match="horizon >= step"):
        integrate(params, start, step=1.0, horizon=0.5)
    with pytest.raises(ParameterError, match="record_stride >= 1"):
        integrate(params, start, record_stride=0)


def test_integrator_reports_nonfinite_step():
    params = GameParams(**REF)
    with pytest.raises(IntegrationError, match="step 1"):
        integrate(params, PopulationState(0.3, 0.3), step=1e100, horizon=1e100)


def test_field_grid_layout():
    params = GameParams(**REF)
    grid = field_grid(params, 4)
    assert len(grid) == 16
    states = [(state.beta, state.alpha) for state, _ in grid]
    thirds = [0.0, 1 / 3, 2 / 3, 1.0]
    assert states == [(b, a) for b in thirds for a in thirds]
    for state, value in grid:
        direct = replicator_field(params, state)
        assert (value.d_beta, value.d_alpha) == (direct.d_beta, direct.d_alpha)
    with pytest.raises(ParameterError, match="resolution >= 2"):
        field_grid(params, 1)


def test_batch_final_states_matches_scalar_integration():
    rng = np.random.default_rng(33)
    games = [random_params(rng) for _ in range(5)]
    starts = [
        PopulationState(b, a)
        for b in (0.2, 0.8)
        for a in (0.25, 0.75)
    ]
    finals = batch_final_states(games, starts)
    assert finals.shape == (5, 4, 2)
    for i, params in enumerate(games):
        for j, start in enumerate(starts):
            scalar = integrate(params, start, horizon=3000.0).final_state
            assert finals[i, j, 0] == pytest.approx(scalar.beta, abs=1e-3)
            assert finals[i, j, 1] == pytest.approx(scalar.alpha, abs=1e-3)
    # Without early stopping, both paths run the same field and RK4 step on
    # the same numbers, so they agree exactly, fines included.
    fined = [random_params(rng, with_fines=True) for _ in range(3)]
    finals = batch_final_states(fined, starts, step=0.05, horizon=40.0)
    for i, params in enumerate(fined):
        for j, start in enumerate(starts):
            scalar = integrate(params, start, step=0.05, horizon=40.0,
                               convergence_tol=0.0).final_state
            assert (finals[i, j, 0], finals[i, j, 1]) == (scalar.beta, scalar.alpha)


def test_batch_final_states_empty_panel():
    starts = [PopulationState(0.2, 0.8), PopulationState(0.5, 0.5)]
    finals = batch_final_states([], starts)
    assert finals.shape == (0, 2, 2)
    assert batch_final_states([GameParams(**REF)], []).shape == (1, 0, 2)


def test_batch_final_states_argument_validation():
    games = [GameParams(**REF)]
    starts = [PopulationState(0.5, 0.5)]
    with pytest.raises(ParameterError, match="step > 0"):
        batch_final_states(games, starts, step=0.0)
    # integrate rejects this span; the batch oracle used to return the starts.
    with pytest.raises(ParameterError, match="horizon >= step"):
        batch_final_states(games, starts, step=0.05, horizon=0.01)
