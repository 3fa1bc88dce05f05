"""Selection field, fixed-step integrator, grids, and the batch basin oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from cyberevo import (
    PAPER_B_A_UPPER,
    Classification,
    EquilibriumKind,
    FineScenario,
    GameParams,
    IntegrationError,
    ParameterError,
    PopulationState,
    SamplerConfig,
    Trajectory,
    analyze_equilibria,
    batch_final_states,
    field_coefficients,
    field_grid,
    fitness_profile,
    integrate,
    phase_portrait,
    replicator_field,
    sample_game,
    stable_set,
)

from cyberevo.dynamics import (
    _ABOVE_ZERO,
    _BELOW_ONE,
    DEFAULT_HORIZON,
    DEFAULT_STEP,
    TRAP_TEST_STRIDE,
    _check_span,
    _leapfrog,
    _sigmoid,
    _time_scale,
)
from cyberevo.game import brackets, corner_signs

from test_equilibria import ROUNDS_WRONG, valid_games
from test_game import NOT_A_NUMBER, REF, check_number_rule, number_rule_cases, random_params


def scaled_payoffs(params, c):
    """``params`` with every payoff and fine multiplied by ``c``: the same
    game in a time unit 1/c times as long."""
    return dataclasses.replace(params, **{
        name: c * getattr(params, name)
        for name in ("w", "c_a", "c_d", "b_a", "b_d", "fine_successful", "fine_unsuccessful")
    })


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
    # ODE with rate b_d - c_d, giving an exact solution to test against.  In
    # log-odds the rate is constant, so the leapfrog is exact up to rounding.
    # Each of its 2,000 half-step drifts rounds an x below 8 by at most
    # 4.4e-16, and d beta = beta (1 - beta) dx with beta (1 - beta) = 0.0107
    # at the end, so the final beta lies within 1e-14 of the closed form (it
    # is 1.1e-15 from it).
    params = GameParams(**REF)
    k0 = params.b_d - params.c_d
    b0, t = 0.2, 10.0
    exact = b0 * math.exp(k0 * t) / (1.0 - b0 + b0 * math.exp(k0 * t))
    trajectory = integrate(params, PopulationState(b0, 0.0), step=0.01, horizon=t)
    assert trajectory.final_state.alpha == 0.0
    assert trajectory.final_state.beta == pytest.approx(exact, abs=1e-14)


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
    full = integrate(params, PopulationState(0.3, 0.3), step=0.01, horizon=5.0)
    thin = integrate(params, PopulationState(0.3, 0.3), step=0.01, horizon=5.0,
                     record_stride=100)
    assert len(full.samples) == 501
    assert len(thin.samples) == 6
    assert thin.samples[0][0] == 0.0
    assert thin.samples[-1][0] == 5.0
    assert thin.final_state == full.final_state
    assert integrate(params, PopulationState(0.3, 0.3), step=0.01, horizon=5.0,
                     record_stride=np.int64(100)) == thin


def test_integrator_argument_validation():
    params = GameParams(**REF)
    start = PopulationState(0.5, 0.5)
    with pytest.raises(ParameterError, match="step > 0"):
        integrate(params, start, step=0.0)
    with pytest.raises(ParameterError, match="horizon >= step"):
        integrate(params, start, step=1.0, horizon=0.5)
    with pytest.raises(ParameterError, match="record_stride >= 1"):
        integrate(params, start, record_stride=0)
    # A float stride used to be accepted: 2.5 recorded every 5th step.
    with pytest.raises(ParameterError, match="record_stride integer"):
        integrate(params, start, record_stride=2.5)


def _span_rows(entry, call):
    # step and horizon of one integrator; the other is a fixed 0.5 or 2.0.
    return [
        (f"{entry}-step", lambda x: call(step=x, horizon=2.0), "step finite real",
         NOT_A_NUMBER + ("int-beyond-float",), [1, np.float32(0.5), np.int64(1)]),
        (f"{entry}-horizon", lambda x: call(step=0.5, horizon=x), "horizon finite real",
         NOT_A_NUMBER + ("int-beyond-float",), [2, np.float32(2.0), np.int64(2)]),
    ]


_GAME, _START = GameParams(**REF), PopulationState(0.5, 0.5)

# The dynamics' rows of the one number rule's table (see test_game.py).
DYNAMICS_NUMBERS = [
    *_span_rows("integrate", lambda **span: integrate(_GAME, _START, **span)),
    *_span_rows("batch_final_states",
                lambda **span: batch_final_states([_GAME], [_START], **span)),
    ("integrate-record_stride",
     lambda x: integrate(_GAME, _START, step=0.5, horizon=2.0, record_stride=x),
     "record_stride integer", ("bool",), [2, np.int64(2)]),
    ("phase_portrait-trajectory_horizon",
     lambda x: phase_portrait(_GAME, resolution=2, trajectory_horizon=x),
     "horizon finite real", NOT_A_NUMBER + ("int-beyond-float",),
     [2, np.float32(2.0), np.int64(2)]),
    ("phase_portrait-resolution", lambda x: phase_portrait(_GAME, resolution=x),
     "resolution >= 2", ("string", "none", "inf"), [2, np.int64(3)]),
    ("field_grid-resolution", lambda x: field_grid(_GAME, x),
     "resolution >= 2", ("string", "none", "inf"), [2, np.int64(3)]),
]


@pytest.mark.parametrize("call, value, named", number_rule_cases(DYNAMICS_NUMBERS))
def test_dynamics_entry_points_check_numbers(call, value, named):
    check_number_rule(ParameterError, call, value, named)


#: A game with a huge unsuccessful-attack fine: g1 is about -2.6e299, so a
#: step of 1e10 overflows dy.  The field is bounded by the brackets, so a
#: game of ordinary size needs a step near 1e308 to overflow.
HUGE_FINE = GameParams(**REF, fine_unsuccessful=1e300)


def test_integrator_reports_nonfinite_step():
    with pytest.raises(IntegrationError, match="step 1"):
        integrate(HUGE_FINE, PopulationState(0.3, 0.3), step=1e10, horizon=1e10)
    # An edge coordinate is infinite from the start and stays so.
    run = integrate(HUGE_FINE, PopulationState(0.3, 0.0), step=1e10, horizon=3e10)
    assert all(state.alpha == 0.0 for _, state in run.samples)


@pytest.mark.parametrize("span, constraint", [
    ({"step": math.nan}, "step finite"),
    ({"step": math.inf}, "step finite"),
    ({"horizon": math.nan}, "horizon finite"),
    ({"horizon": math.inf}, "horizon finite"),
    ({"horizon": -math.inf}, "horizon finite"),
    ({"step": 1e-300, "horizon": 1e10}, "horizon / step finite"),
], ids=["step-nan", "step-inf", "horizon-nan", "horizon-inf", "horizon-minus-inf",
        "step-count-overflow"])
def test_non_finite_span_is_refused(span, constraint):
    # step=nan used to raise a bare ValueError, and horizon=inf or a step
    # count that overflows an OverflowError, all from int(round(horizon / step)).
    params, start = GameParams(**REF), PopulationState(0.5, 0.5)
    with pytest.raises(ParameterError, match=constraint):
        integrate(params, start, **span)
    with pytest.raises(ParameterError, match=constraint):
        batch_final_states([params], [start], **span)


def integrate_reference(params, start, step=0.05, horizon=1000.0, record_stride=1):
    """Reference for :func:`integrate`: the same leapfrog in log-odds, one
    step per iteration with the field written out, recording at
    ``k % record_stride == 0``, and every ``TRAP_TEST_STRIDE`` steps and
    after the last the finiteness check and the trap rule spelled out with
    signs, the field measured in the game's own time.  An edge coordinate
    stays at +-inf by itself and counts as settled on its edge."""
    k0, k1, g0, g1 = field_coefficients(params)
    d0, d1, a0, a1 = corner_signs(*params.as_tuple())
    scale = max(abs(k0), abs(k0 + k1), abs(g0), abs(g0 + g1))
    h = step

    def sigma(z):
        return 1.0 / (1.0 + float(np.exp(-z)))

    def logit(p):
        with np.errstate(divide="ignore"):
            return float(np.log(p) - np.log1p(-p))

    def heads_up(z, v):
        # Whether the coordinate heads for the corner's side at +inf.
        return z > 0.0 if math.isinf(z) else v > 0.0

    def settled(z, v, limit_sign):
        # At +-inf a coordinate is on its edge for good.  Otherwise its
        # velocity and the certified sign of the velocity's limit at the
        # corner the pair heads for both point to the side of the corner
        # it is nearest, the one on z's side.
        side = 1.0 if z > 0.0 else -1.0
        return math.isinf(z) or np.sign(v) == limit_sign == side

    x0, y0 = logit(start.beta), logit(start.alpha)
    x, y = x0, y0
    samples = [(0.0, start)]
    converged = False
    n_steps = int(round(horizon / step))
    with np.errstate(over="ignore"):
        for k in range(1, n_steps + 1):
            x += 0.5 * (h * k0 + h * k1 * sigma(y))
            y += h * g0 + h * g1 * sigma(x)
            x += 0.5 * (h * k0 + h * k1 * sigma(y))
            tested = k % TRAP_TEST_STRIDE == 0 or k == n_steps
            if tested or k % record_stride == 0:
                for z, z0 in ((x, x0), (y, y0)):
                    if math.isnan(z) or (math.isfinite(z0) and not math.isfinite(z)):
                        raise IntegrationError(f"non-finite state at step {k}")
            beta, alpha = sigma(x), sigma(y)
            if k % record_stride == 0:
                samples.append((k * step, PopulationState(beta, alpha)))
            if tested:
                vx, vy = k0 + k1 * alpha, g0 + g1 * beta
                quiet = max(abs(beta * (1.0 - beta) * vx),
                            abs(alpha * (1.0 - alpha) * vy)) / scale < 1e-9
                trapped = (settled(x, vx, d1 if heads_up(y, vy) else d0)
                           and settled(y, vy, a1 if heads_up(x, vx) else a0))
                if quiet and trapped:
                    converged = True
                    break
    if k % record_stride != 0:
        samples.append((k * step, PopulationState(beta, alpha)))
    return Trajectory(tuple(samples), converged, samples[-1][1])


def same_as_reference(params, start, **kwargs):
    """Assert that :func:`integrate` returns what the reference returns, the
    signs of zeros included, or raises the same ``IntegrationError``.
    Returns the trajectory, or None if both raised."""
    try:
        expected = integrate_reference(params, start, **kwargs)
    except IntegrationError as error:
        with pytest.raises(IntegrationError) as raised:
            integrate(params, start, **kwargs)
        assert str(raised.value) == str(error)
        return None
    run = integrate(params, start, **kwargs)
    assert run == expected
    assert repr(run) == repr(expected)
    return run


def _seed_one_game(index):
    return sample_game(SamplerConfig(count=1, master_seed=1), index)


def _settles_on(kind):
    def premise(params, runs):
        corner = kind.corner
        return stable_set(params) == {kind} and all(
            run.converged and max(abs(run.final_state.beta - corner[0]),
                                  abs(run.final_state.alpha - corner[1])) <= 1e-3
            for run in runs
        )
    return premise


#: Acceptance criterion 10's 16 starts.
CRITERION_10_STARTS = [PopulationState(float(b), float(a))
                       for b in np.linspace(1e-3, 1.0 - 1e-3, 4)
                       for a in np.linspace(1e-3, 1.0 - 1e-3, 4)]

#: Starts on the edges and corners, and on -0.0.
EDGE_STARTS = [PopulationState(*start) for start in (
    (0.0, 0.3), (1.0, 0.3), (0.3, 0.0), (0.3, 1.0),
    (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
    (-0.0, 0.6), (0.6, -0.0), (-0.0, -0.0),
)]


@pytest.mark.parametrize("params, starts, kwargs, premise", [
    # Game 370 of master seed 1: only E2 is stable.  The four starts with
    # alpha = 0.001 run up the beta = 1 edge to the saddle E4, where an
    # edge that absorbed them would end them.
    pytest.param(_seed_one_game(370), CRITERION_10_STARTS, {"record_stride": 200},
                 _settles_on(EquilibriumKind.E2), id="absorbing-edge"),
    # The benchmark's trajectories: games 0, 4 and 10 of master seed 1.
    pytest.param(_seed_one_game(0), CRITERION_10_STARTS, {"record_stride": 200},
                 _settles_on(EquilibriumKind.E3), id="bench-E3"),
    pytest.param(_seed_one_game(4), CRITERION_10_STARTS, {"record_stride": 200},
                 _settles_on(EquilibriumKind.E2), id="bench-E2"),
    pytest.param(_seed_one_game(10), CRITERION_10_STARTS, {"record_stride": 200},
                 _settles_on(EquilibriumKind.E4), id="bench-E4"),
    # A start on an edge stays on it; -0.0 is a valid frequency.
    pytest.param(
        GameParams(**REF), EDGE_STARTS, {"horizon": 50.0, "record_stride": 3},
        lambda params, runs: all(
            state.beta == start.beta or state.alpha == start.alpha
            for start, run in zip(EDGE_STARTS, runs) for _, state in run.samples
        ) and any(math.copysign(1.0, start.beta) < 0.0 for start in EDGE_STARTS),
        id="edges"),
    # The run is too short to settle, so every step is taken.
    pytest.param(
        GameParams(**REF), [PopulationState(0.3, 0.3)], {"horizon": 20.0},
        lambda params, runs: not runs[0].converged and runs[0].samples[-1][0] == 20.0,
        id="short-horizon"),
    # 7 does not divide the 500 steps: the last one is recorded as well.
    pytest.param(
        GameParams(**REF), [PopulationState(0.3, 0.3)],
        {"step": 0.01, "horizon": 5.0, "record_stride": 7},
        lambda params, runs: [t for t, _ in runs[0].samples]
        == [k * 0.01 for k in range(0, 500, 7)] + [5.0],
        id="odd-stride"),
    # The first step overflows.
    pytest.param(
        HUGE_FINE, [PopulationState(0.3, 0.3)], {"step": 1e10, "horizon": 1e10},
        lambda params, runs: runs == [None], id="overflow"),
])
def test_integrate_matches_the_reference(params, starts, kwargs, premise):
    runs = [same_as_reference(params, start, **kwargs) for start in starts]
    assert premise(params, runs)


_FREQUENCY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, float(np.nextafter(1.0, 0.0)), 5e-324]),
    st.floats(0.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    with_fines=st.booleans(),
    start=st.tuples(_FREQUENCY, _FREQUENCY),
    step=st.one_of(st.sampled_from([0.05, 3.0, 50.0]), st.floats(1e-3, 100.0)),
    n_steps=st.integers(1, 600),
    record_stride=st.integers(1, 500),
)
def test_integrate_matches_the_reference_anywhere(
    seed, with_fines, start, step, n_steps, record_stride,
):
    params = random_params(np.random.default_rng(seed), with_fines=with_fines)
    same_as_reference(params, PopulationState(*start), step=step,
                      horizon=n_steps * step, record_stride=record_stride)


def test_integrate_makes_one_exp_per_block_end(monkeypatch):
    # One np.exp for the start's velocity, two per step, and one per block
    # end for beta: alpha is the last half-kick's.  Blocks end at each record
    # point (every 7th step), each trap test (every 8th) and the last step.
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda z: calls.append(z) or exp(z))
    n_steps = 500
    run = integrate(GameParams(**REF), PopulationState(0.3, 0.3), step=0.01,
                    horizon=n_steps * 0.01, record_stride=7)
    assert not run.converged and run.samples[-1][0] == 5.0
    block_ends = {k for k in range(1, n_steps + 1) if k % 7 == 0 or k % 8 == 0} | {n_steps}
    assert len(calls) == 1 + 2 * n_steps + len(block_ends)


@pytest.mark.parametrize("n", range(1, TRAP_TEST_STRIDE + 1))
def test_leapfrog_returns_the_sigmoid_of_its_last_y(n):
    # Interior pairs at steps that keep exp in range and that overflow it,
    # and edge coordinates, which integrate gives the velocity +-inf.
    k0, k1, g0, g1 = field_coefficients(GameParams(**REF))
    inf = math.inf
    cases = [((x, y), (step * k0, step * k1, step * g0, step * g1))
             for x, y in ((0.3, -0.2), (-40.0, 35.0), (700.0, -700.0))
             for step in (0.05, 3.0, 900.0)]
    cases += [((x, 0.3), (x, 0.0, g0, g1)) for x in (inf, -inf)]
    cases += [((0.3, y), (k0, k1, y, 0.0)) for y in (inf, -inf)]
    cases += [((x, y), (x, 0.0, y, 0.0)) for x in (inf, -inf) for y in (inf, -inf)]
    with np.errstate(over="ignore"):
        for (x, y), (hk0, hk1, hg0, hg1) in cases:
            vx = hk0 + hk1 * float(_sigmoid(y))
            _, y_end, _, alpha = _leapfrog(n, x, y, vx, hk0, hk1, hg0, hg1)
            assert np.float64(alpha).tobytes() == _sigmoid(y_end).tobytes(), (x, y, hg0)


def first_integral(params, state):
    """H = A(x) - B(y) of the module docstring at a state in the open unit
    square, in closed form: A = g0 ln(beta) - (g0 + g1) ln(1 - beta) and
    B = k0 ln(alpha) - (k0 + k1) ln(1 - alpha)."""
    k0, k1, g0, g1 = field_coefficients(params)
    beta, alpha = state.beta, state.alpha
    return ((g0 * math.log(beta) - (g0 + g1) * math.log1p(-beta))
            - (k0 * math.log(alpha) - (k0 + k1) * math.log1p(-alpha)))


def first_integral_drift(params, run, margin=1e-6):
    """The largest |H - H(start)| over ``run``'s recorded samples with both
    frequencies in [margin, 1 - margin], where a recorded frequency still
    fixes its log-odds to about 1e-10; 0 from an edge start."""
    start = run.samples[0][1]
    if not (0.0 < start.beta < 1.0 and 0.0 < start.alpha < 1.0):
        return 0.0
    h0 = first_integral(params, start)
    return max((abs(first_integral(params, state) - h0) for _, state in run.samples
                if margin <= min(state.beta, state.alpha) <= max(state.beta, state.alpha)
                <= 1.0 - margin), default=0.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    with_fines=st.booleans(),
    start=st.tuples(_FREQUENCY, _FREQUENCY),
    scaled_step=st.floats(0.01, 0.25),
    n_steps=st.integers(1, 2000),
    record_stride=st.integers(1, 50),
)
def test_integrate_holds_the_first_integral(
    seed, with_fines, start, scaled_step, n_steps, record_stride,
):
    # The leapfrog conserves a modified first integral H + step**2 H2 +
    # O(step**4), where H2 is a sum of A''(x) B'(y)**2 / 12 and
    # B''(y) A'(x)**2 / 24.  |A'| and |B'| are velocities, at most s, and
    # |A''| <= |g1| / 4 <= s / 2, |B''| <= |k1| / 4 <= s / 2, so |H2| <=
    # s**3 / 16 and H stays within s q**2 / 8 of its start, with q = step s
    # the step in the game's own time.  The extreme starts run the exps
    # into overflow, which fails the run unless it is silenced.
    params = random_params(np.random.default_rng(seed), with_fines=with_fines)
    k0, k1, g0, g1 = field_coefficients(params)
    scale = max(abs(k0), abs(k0 + k1), abs(g0), abs(g0 + g1))
    step = scaled_step / scale
    run = integrate(params, PopulationState(*start), step=step, horizon=n_steps * step,
                    record_stride=record_stride)
    assert all(0.0 <= state.beta <= 1.0 and 0.0 <= state.alpha <= 1.0
               for _, state in run.samples)
    assert first_integral_drift(params, run) <= scale * (scaled_step**2 / 8.0 + 1e-9)


@pytest.mark.parametrize("params, start", [
    (GameParams(**REF), (0.1, 0.1)),
    (GameParams(w=0.98, c_a=0.51, c_d=0.20, b_a=0.90, b_d=0.79, v=0.26), (0.3, 0.7)),
    (GameParams(w=0.98, c_a=0.69, c_d=0.54, b_a=0.79, b_d=0.72, v=0.15), (0.5, 0.5)),
], ids=["REF", "README", "bistable"])
def test_first_integral_drift_is_of_order_step_squared(params, start):
    # Halving the step quarters the drift of H along the same stretch of
    # trajectory.
    k0, k1, g0, g1 = field_coefficients(params)
    scale = max(abs(k0), abs(k0 + k1), abs(g0), abs(g0 + g1))
    drifts = [first_integral_drift(params, integrate(
        params, PopulationState(*start), step=q / scale, horizon=40.0 / scale))
        for q in (0.2, 0.1)]
    assert drifts[1] > 1e-6 * scale
    assert 3.8 < drifts[0] / drifts[1] < 4.2


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


#: A bistable game: E2 and E3 stable, brackets k0 0.18, k0 + k1 -0.285,
#: g0 0.10, g0 + g1 -0.0185.
BISTABLE = GameParams(w=0.98, c_a=0.69, c_d=0.54, b_a=0.79, b_d=0.72, v=0.15)

#: A NonHyperbolic game: k0 + k1 = 0 exactly, every other bracket positive.
#: Every interior start drifts toward the alpha = 1 edge, a line of fixed
#: points, so no trap ever holds.
NEUTRAL = GameParams(w=1.0, c_a=0.25, c_d=0.375, b_a=0.75, b_d=0.5, v=0.25)

GRID = [PopulationState(b, a) for b in np.linspace(0.02, 0.98, 7)
        for a in np.linspace(0.02, 0.98, 7)]


def _on_corner(finals):
    return np.all((finals == 0.0) | (finals == 1.0), axis=-1)


def _saddle_frame(params, beta, alpha):
    """A bistable game's brackets over its time scale, the starts' log-odds
    (x, y) and the interior saddle's (x*, y*)."""
    k0, k1, g0, g1 = field_coefficients(params)
    k0, k1, g0, g1 = np.array([k0, k1, g0, g1]) / max(
        abs(k0), abs(k0 + k1), abs(g0), abs(g0 + g1))
    x = np.log(beta) - np.log1p(-beta)
    y = np.log(alpha) - np.log1p(-alpha)
    x_star = np.log(g0 / -(g0 + g1))
    y_star = np.log(k0 / -(k0 + k1))
    return (k0, k1, g0, g1), (x, y), (x_star, y_star)


def separatrix_labels(params, beta, alpha):
    """Reference basin labels of a bistable game, from its first integral.

    In log-odds x = logit(beta), y = logit(alpha), H = A(x) - B(y) with
    A(x) = g0 x + g1 softplus(x) and B(y) = k0 y + k1 softplus(y) is
    constant along trajectories.  With (x*, y*) the interior saddle,
    u = sgn(x - x*) sqrt|A(x) - A(x*)| and s = sgn(y - y*) sqrt|B(y) - B(y*)|
    straighten the separatrices to u = +-s, and u = s is the saddle's
    stable manifold: a start ends at E3 when u - s > 0 and at E2 when
    u - s < 0.  The brackets are divided by the oracle's time scale, so u
    and s are scale-free.

    Returns the label corners, shape (n, 2), and u - s, shape (n,).
    """
    (k0, k1, g0, g1), (x, y), (x_star, y_star) = _saddle_frame(params, beta, alpha)
    a_gap = g0 * (x - x_star) + g1 * (np.logaddexp(0.0, x) - np.logaddexp(0.0, x_star))
    b_gap = k0 * (y - y_star) + k1 * (np.logaddexp(0.0, y) - np.logaddexp(0.0, y_star))
    u = np.sign(x - x_star) * np.sqrt(np.abs(a_gap))
    s = np.sign(y - y_star) * np.sqrt(np.abs(b_gap))
    labels = np.where((u - s > 0.0)[:, None], [1.0, 0.0], [0.0, 1.0])
    return labels, u - s


def corner_exit_times(params, beta, alpha):
    """A lower bound on the time, in the oracle's time unit, before which no
    start of a bistable game can be trapped.

    k1 < 0 and g1 < 0, so dx/dt = k0 + k1 sigma(y) lies in [k0 + k1, k0]
    and dy/dt = g0 + g1 sigma(x) in [g0 + g1, g0] everywhere.  A start with
    x < x* and y < y* heads for E4 and one with x > x* and y > y* for E1,
    neither a sink, so neither is trapped until x or y has crossed the
    saddle's; each coordinate moves no faster than its bound, so that takes
    at least the smaller of the two distances over its speed.  Every other
    start is in a sink's quadrant already, and its bound is 0.
    """
    (k0, k1, g0, g1), (x, y), (x_star, y_star) = _saddle_frame(params, beta, alpha)
    toward_e4 = (x < x_star) & (y < y_star)
    toward_e1 = (x > x_star) & (y > y_star)
    from_e1 = np.minimum((x_star - x) / k0, (y_star - y) / g0)
    from_e4 = np.minimum((x - x_star) / -(k0 + k1), (y - y_star) / -(g0 + g1))
    return np.where(toward_e4, from_e1, np.where(toward_e1, from_e4, 0.0))


def test_batch_final_states_ends_on_the_stable_corner():
    # A single-stable game has no interior saddle, so every interior start
    # ends at its one sink.
    rng = np.random.default_rng(33)
    draws = [random_params(rng, with_fines=i % 2 == 1) for i in range(400)]
    single = [params for params in draws if len(stable_set(params)) == 1]
    assert len(single) > 300
    finals = batch_final_states(single, GRID)
    for g, params in enumerate(single):
        (kind,) = stable_set(params)
        assert (finals[g] == kind.corner).all()
    # Wherever the scalar integrator settles within 1e-3 of a stable corner,
    # the batch pair ends on that corner; bistable games make this a test.
    bistable = [params for params in draws if len(stable_set(params)) == 2]
    starts = [PopulationState(b, a) for b, a in ((0.1, 0.9), (0.9, 0.1), (0.5, 0.5), (0.7, 0.6))]
    finals = batch_final_states(bistable, starts)
    compared = 0
    for g, params in enumerate(bistable):
        for j, start in enumerate(starts):
            end = integrate(params, start, record_stride=10**6).final_state
            for kind in stable_set(params):
                if max(abs(end.beta - kind.corner[0]), abs(end.alpha - kind.corner[1])) <= 1e-3:
                    assert tuple(finals[g, j]) == kind.corner
                    compared += 1
    assert compared >= 20


def test_integrate_never_settles_off_the_stable_corner():
    # A single-stable game has no interior saddle, so an interior start that
    # reports convergence must end at its one sink.  Starts of games 370,
    # 19, 33 and 44 run along the beta = 1 edge next to the saddle (1, 1);
    # many of 19, 33 and 44 are still unconverged at the horizon, and are
    # reported so.
    config = SamplerConfig(count=1, master_seed=1)
    axis = np.linspace(1e-3, 1.0 - 1e-3, 4)
    starts = [PopulationState(float(b), float(a)) for b in axis for a in axis]
    for index in [370, *range(60)]:
        params = sample_game(config, index)
        stable = stable_set(params)
        if len(stable) != 1:
            continue
        ((corner_beta, corner_alpha),) = [kind.corner for kind in stable]
        for start in starts:
            run = integrate(params, start, record_stride=10**6)
            end = run.final_state
            assert not run.converged or max(
                abs(end.beta - corner_beta), abs(end.alpha - corner_alpha)
            ) <= 1e-3, (index, start, end)


#: The README's game (only E4 is stable).
README_GAME = GameParams(w=0.98, c_a=0.51, c_d=0.20, b_a=0.90, b_d=0.79, v=0.26)


@pytest.mark.parametrize("start", [(0.7, 0.7), (0.3, 0.7), (0.05, 0.95)])
def test_integrate_is_scale_free(start):
    # Multiplying every payoff by 2**-27 stretches time by exactly 2**27, so
    # with step and horizon stretched alike every log-odds state has the same
    # bits.  An absolute field tolerance would stop the scaled runs at step
    # 8, 56 and 224, where the runs in the game's own time stop at step 2,352,
    # 2,264 and 1,776.
    c = 2.0 ** -27
    run = integrate(README_GAME, PopulationState(*start))
    scaled = integrate(scaled_payoffs(README_GAME, c), PopulationState(*start),
                       step=DEFAULT_STEP / c, horizon=DEFAULT_HORIZON / c)
    assert run.converged and scaled.converged
    assert repr([state for _, state in scaled.samples]) == repr([state for _, state in run.samples])
    assert [t for t, _ in scaled.samples] == [t / c for t, _ in run.samples]


def test_integrate_does_not_settle_a_slow_game_at_its_start():
    # At 1e-8 times the README's payoffs the field at (0.7, 0.7) is about
    # 1e-10, below an absolute tolerance of 1e-9, but in the game's own time
    # the run has hardly begun at the horizon.
    run = integrate(scaled_payoffs(README_GAME, 1e-8), PopulationState(0.7, 0.7))
    assert not run.converged
    assert run.samples[-1][0] == DEFAULT_HORIZON


def test_integrate_does_not_settle_on_a_saddle_corner_it_passes():
    # From a gap of 1e-9 or 1e-10 below the beta = 1 edge, game 370's
    # trajectory passes within about that gap of the saddle E4 = (1, 1),
    # where it is already in E2's trapping quadrant and the field gets below
    # the tolerance; from 1e-10 it is below at a step where the trap is
    # tested (at t = 830).  It is not settled there: it heads for E2, not
    # for the corner it is near.
    params = _seed_one_game(370)
    assert stable_set(params) == {EquilibriumKind.E2}
    for gap in (1e-9, 1e-10):
        run = integrate(params, PopulationState(1.0 - gap, 1e-3), record_stride=10**6)
        assert not run.converged or run.final_state == PopulationState(0.0, 1.0)
        assert run.final_state.beta < 1e-3, gap


@st.composite
def band_games(draw):
    """A :func:`valid_games` game with one corner bracket set inside its
    float64 rounding band, so that its certified sign is 0:

    * D0 = b_d - c_d, with b_d one ulp above c_d;
    * D1 = v (b_d + w) - c_d, with c_d = fl(v (b_d + w)) or one ulp below,
      v drawn below b_d / (b_d + w) so that c_d < b_d;
    * A0 = b_a - c_a - f_s, with f_s = fl(b_a - c_a) or one ulp off;
    * A1 = b_a (1 - v) - c_a with no fines, with c_a = fl(b_a (1 - v)) or
      one ulp off, b_a drawn as about c_a / (1 - v).
    """
    w, c_a, c_d, b_a, b_d, v, f_s, f_u = draw(valid_games()).as_tuple()
    bracket = draw(st.sampled_from(["D0", "D1", "A0", "A1"]))
    ulps = draw(st.sampled_from([-1, 0, 1]))

    def nudged(x):
        return float(np.nextafter(x, math.copysign(math.inf, ulps))) if ulps else x

    if bracket == "D0":
        b_d = float(np.nextafter(c_d, 1.0))
    elif bracket == "D1":
        v = b_d / (b_d + w) * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        c_d = nudged(v * (b_d + w)) if ulps < 1 else v * (b_d + w)
    elif bracket == "A0":
        f_s = nudged(b_a - c_a)
    else:
        f_s = f_u = 0.0
        b_a = c_a / (1.0 - v) if v < 1.0 else c_a
        c_a = nudged(b_a * (1.0 - v))
    try:
        params = GameParams(w, c_a, c_d, b_a, b_d, v, f_s, f_u)
    except ParameterError:
        reject()
    # With a subnormal time scale s, a step of 0.25 / s overflows, so
    # neither integrator can step in the game's own time.
    k0, k1, g0, g1 = field_coefficients(params)
    assume(max(abs(k0), abs(k0 + k1), abs(g0), abs(g0 + g1)) > 1e-300)
    return params


#: Interior starts of the rounding-band test: the oracle's nine, and the
#: scalar integrator's four.  From beta = 0.5 a run may settle with x of
#: order 1e-17, where sigma(x) rounds to 0.5 and hides the side it is on.
BAND_STARTS = [PopulationState(b, a) for b in (0.1, 0.5, 0.9) for a in (0.1, 0.5, 0.9)]
OUTER_STARTS = [PopulationState(b, a) for b in (0.1, 0.9) for a in (0.1, 0.9)]

#: Explicit games for the rounding-band test: ROUNDS_WRONG (D1 and A0 in
#: their bands), then one game each with D0, D1 and A1 in its band (b_d one
#: ulp above c_d; c_d = fl(v (b_d + w)); c_a = fl(b_a (1 - v))).  In each of
#: the last three a raw sign led both integrators to a corner that is not
#: a sink.
BAND_EXAMPLES = [
    ROUNDS_WRONG,
    GameParams(w=1.0, c_a=0.5, c_d=0.5, b_a=1.5, b_d=0.5000000000000001, v=1.0),
    GameParams(w=0.9, c_a=0.2, c_d=0.3 * (0.6 + 0.9), b_a=0.7, b_d=0.6, v=0.3),
    GameParams(w=0.9, c_a=0.7 * (1 - 0.3), c_d=0.2, b_a=0.7, b_d=0.6, v=0.3),
]


@settings(max_examples=25, deadline=None)
@given(games=st.lists(band_games(), min_size=1, max_size=3))
@example(games=BAND_EXAMPLES)
def test_no_integrator_settles_on_an_undecidable_corner(games):
    # Each game has a corner bracket whose sign float64 cannot decide, and
    # the two corners it is an eigenvalue of are NonHyperbolic.  Every exact
    # corner the oracle writes for an interior start, and the corner nearest
    # every converged run, is one the classifier calls Stable: both
    # integrators read the classifier's certified signs, and a raw sign in
    # the band once wrote or settled on a corner that is not a sink.
    # integrate steps in absolute time, so it is given the game's own, and
    # both run shorter than their defaults to keep the test fast.
    finals = batch_final_states(games, BAND_STARTS, horizon=500.0)
    for g, params in enumerate(games):
        assert 0.0 in corner_signs(*params.as_tuple())
        stable = {kind.corner for kind in stable_set(params)}
        for final in finals[g][_on_corner(finals[g])].tolist():
            assert tuple(final) in stable, (params, final)
        k0, k1, g0, g1 = field_coefficients(params)
        scale = max(abs(k0), abs(k0 + k1), abs(g0), abs(g0 + g1))
        for start in OUTER_STARTS:
            run = integrate(params, start, step=DEFAULT_STEP / scale,
                            horizon=250.0 / scale, record_stride=10**6)
            end = run.final_state
            assert not run.converged or (round(end.beta), round(end.alpha)) in stable, (
                params, start, end)


def test_an_undecidable_edge_bracket_leaves_an_edge_start_on_its_edge():
    # A0 = b_a - c_a - f_s computes to -5.6e-17, inside its rounding band,
    # so E1 and E2 are NonHyperbolic.  On the edge beta = 0, alpha drifts at
    # the rate A0 and no trap holds: the pairs end unresolved, still on the
    # edge they started on and with alpha strictly inside (0, 1).
    params = GameParams(w=0.9, c_a=0.3, c_d=0.2, b_a=0.7, b_d=0.6, v=0.3,
                        fine_successful=float(np.nextafter(0.7 - 0.3, 1.0)),
                        fine_unsuccessful=0.1)
    assert corner_signs(*params.as_tuple())[2] == 0.0
    assert field_coefficients(params)[2] != 0.0
    starts = [PopulationState(0.0, a) for a in (0.1, 0.5, 0.9)]
    finals = batch_final_states([params], starts, horizon=500.0)
    assert (finals[..., 0] == 0.0).all()
    assert ((finals[..., 1] > 0.0) & (finals[..., 1] < 1.0)).all()


#: Sampling measures: the default, the paper's ceiling, and the paper's
#: ceiling with fines.
MEASURES = {
    "default": {},
    "paper": {"b_a_upper": PAPER_B_A_UPPER},
    "fined": {"b_a_upper": PAPER_B_A_UPPER, "scenario": FineScenario(f_u=0.3, f_s=0.1)},
}


@st.composite
def sampled_bistable_games(draw):
    """The bistable games among 300 consecutive draws of one measure."""
    config = SamplerConfig(count=1, master_seed=draw(st.integers(0, 2**64 - 1)),
                           **MEASURES[draw(st.sampled_from(sorted(MEASURES)))])
    first = draw(st.integers(0, 10**9))
    games = [sample_game(config, i) for i in range(first, first + 300)]
    return [params for params in games if len(stable_set(params)) == 2]


@st.composite
def wide_bistable_games(draw):
    """One bistable game with b_a log-uniform up to 1e12.

    E2 is stable when v < c_d / (b_d + w), so that k0 + k1 < 0.  E3 is
    stable when g0 > 0 > g0 + g1; with the fine f_s = b_a - c_a - delta
    that holds for 0 < delta < v (c_a + f_u) / (1 - v).
    """
    unit = st.floats(0.01, 0.99)
    w = draw(st.floats(0.05, 1.0))
    c_a, c_d = w * draw(unit), w * draw(unit)
    b_d = c_d + (w - c_d) * draw(unit)
    v = c_d / (b_d + w) * draw(unit)
    b_a = c_a + 10.0 ** draw(st.floats(0.0, 12.0))
    f_u = draw(st.floats(0.0, 1.0))
    delta = min(b_a - c_a, v * (c_a + f_u) / (1.0 - v)) * draw(unit)
    params = GameParams(w=w, c_a=c_a, c_d=c_d, b_a=b_a, b_d=b_d, v=v,
                        fine_successful=b_a - c_a - delta, fine_unsuccessful=f_u)
    assume(len(stable_set(params)) == 2)
    return [params]


#: The basin oracle's default horizon, in the game's own time.
ORACLE_HORIZON = 1e5


@settings(max_examples=40, deadline=None)
@given(
    games=st.one_of(sampled_bistable_games(), wide_bistable_games()),
    extra=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                             st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
                   max_size=8),
)
# At log-odds (-710, -610), deep in E1's quadrant, dx/dt is at most
# k0/s = 0.0062 here, so this start needs 114,000 time units to reach the
# saddle's x: it is returned unresolved at the horizon, though clearly on
# E3's side.
@example(
    games=[sample_game(SamplerConfig(count=1, master_seed=0, **MEASURES["fined"]), 20346)],
    extra=[(2.2e-309, 9.9e-266)],
)
def test_batch_final_states_matches_the_separatrix_labels(games, extra):
    assume(games)
    starts = GRID + [PopulationState(b, a) for b, a in extra]
    beta = np.array([s.beta for s in starts])
    alpha = np.array([s.alpha for s in starts])
    finals = batch_final_states(games, starts, horizon=ORACLE_HORIZON)
    for g, params in enumerate(games):
        assert {k.value for k in stable_set(params)} == {"E2", "E3"}
        labels, side = separatrix_labels(params, beta, alpha)
        # The leapfrog holds a first integral perturbed by O(step^2), so a
        # start this close to the stable manifold may fall either way:
        # 22 of 569,800 random pairs did, all within 3.7e-4 of it.
        clear = np.abs(side) > 1e-3
        assert clear.mean() > 0.9
        # A clear pair that ends on a corner ends on its label's.  One that
        # ends on none ran out of time: the oracle returns a pair still
        # untrapped at the horizon as its last state, and a start deep in
        # the E1 or E4 quadrant cannot be trapped sooner than its
        # corner_exit_times bound, which may exceed the horizon.
        resolved = _on_corner(finals[g])
        assert (finals[g][clear & resolved] == labels[clear & resolved]).all()
        unresolved = clear & ~resolved
        assert (corner_exit_times(params, beta, alpha)[unresolved] > ORACLE_HORIZON).all()


def test_batch_final_states_is_scale_free():
    # Multiplying every payoff by c rescales time by c; the oracle's steps
    # are in the game's own time unit, so the finals do not move.
    rng = np.random.default_rng(34)
    games = [random_params(rng, with_fines=True) for _ in range(60)]
    tiny = [scaled_payoffs(params, 1e-8) for params in games]
    finals = batch_final_states(games, GRID)
    assert _on_corner(finals).all()
    assert np.array_equal(batch_final_states(tiny, GRID), finals)


def test_batch_final_states_edge_and_corner_starts():
    # A start on an edge stays on it and ends at the corner its constant
    # bracket points to; on BISTABLE, g0 > 0, g0 + g1 < 0, k0 > 0 and
    # k0 + k1 < 0.  g0 + g1 is -0.0185, so the beta = 1 edge is slow.
    corners = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    starts = [PopulationState(0.0, 0.9), PopulationState(1.0, 0.9),
              PopulationState(0.3, 0.0), PopulationState(0.3, 1.0)]
    starts += [PopulationState(*corner) for corner in corners]
    finals = batch_final_states([BISTABLE], starts)[0]
    expected = [(0.0, 1.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)] + corners
    assert [tuple(f) for f in finals] == expected
    # On an edge whose bracket is exactly zero the start does not move:
    # here g0 = b_a - c_a - f_s = 0.
    flat = GameParams(w=1.0, c_a=0.25, c_d=0.375, b_a=0.75, b_d=0.5, v=0.25,
                      fine_successful=0.5)
    assert field_coefficients(flat)[2] == 0.0
    finals = batch_final_states([flat], [PopulationState(0.0, 0.3)])
    assert tuple(finals[0, 0]) == (0.0, 0.3)


#: k0 + k1 = 0 and g0 + g1 = 0 exactly (every operand is dyadic), so the
#: beta = 1 and alpha = 1 edges are lines of fixed points.
FLAT_FAR_EDGES = GameParams(w=1.0, c_a=0.25, c_d=0.375, b_a=0.75, b_d=0.5, v=0.25,
                            fine_successful=0.25, fine_unsuccessful=0.5)


def edge_reference(params, start):
    """Closed-form end of an edge or corner start.

    On an invariant edge the other frequency is logistic, with the edge's
    constant bracket as its rate: it ends at 1 if the rate is positive, at 0
    if it is negative, and stays where it began if the rate is zero.  A
    corner start stays at its corner.
    """
    k0, k1, g0, g1 = field_coefficients(params)
    beta, alpha = start.beta, start.alpha

    def settle(rate, p):
        return 1.0 if rate > 0.0 else 0.0 if rate < 0.0 else p

    if beta in (0.0, 1.0) and alpha not in (0.0, 1.0):
        alpha = settle(g0 + g1 if beta == 1.0 else g0, alpha)
    elif alpha in (0.0, 1.0) and beta not in (0.0, 1.0):
        beta = settle(k0 + k1 if alpha == 1.0 else k0, beta)
    return beta, alpha


@st.composite
def edge_games(draw):
    """A random game, the same with g0 = 0 exactly, or FLAT_FAR_EDGES."""
    params = random_params(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                           with_fines=draw(st.booleans()))
    flat = draw(st.sampled_from(["none", "g0", "far"]))
    if flat == "g0":
        params = dataclasses.replace(params, fine_successful=params.b_a - params.c_a)
    elif flat == "far":
        params = FLAT_FAR_EDGES
    k0, k1, g0, g1 = field_coefficients(params)
    assert flat != "g0" or g0 == 0.0
    assert flat != "far" or k0 + k1 == g0 + g1 == 0.0
    return params


_ON_EDGE = st.sampled_from([0.0, -0.0, 1.0])
_INSIDE = st.one_of(st.sampled_from([5e-324, float(np.nextafter(1.0, 0.0))]),
                    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=100, deadline=None)
@given(
    games=st.lists(edge_games(), min_size=1, max_size=4),
    starts=st.lists(st.one_of(st.tuples(_ON_EDGE, _INSIDE), st.tuples(_INSIDE, _ON_EDGE),
                              st.tuples(_ON_EDGE, _ON_EDGE)), min_size=1, max_size=12),
)
def test_batch_final_states_edge_starts_match_the_closed_form(games, starts):
    # All four edges and the corners, with and without fines, and edges whose
    # bracket is exactly zero.  A -0.0 start may end as the corner's 0.0.
    starts = [PopulationState(*start) for start in starts]
    finals = batch_final_states(games, starts)
    expected = [[edge_reference(params, start) for start in starts] for params in games]
    assert np.array_equal(finals, expected)


def test_batch_final_states_corner_means_resolved():
    rng = np.random.default_rng(35)
    games = [random_params(rng, with_fines=True) for _ in range(30)] + [NEUTRAL]
    settled = batch_final_states(games, GRID, horizon=2000.0)
    resolved = _on_corner(settled)
    assert resolved[:-1].all()
    # NEUTRAL never enters a trap: its pairs end unresolved, strictly
    # inside the square, without raising.
    assert field_coefficients(NEUTRAL)[0] + field_coefficients(NEUTRAL)[1] == 0.0
    assert any(r.classification is Classification.NON_HYPERBOLIC
               for r in analyze_equilibria(NEUTRAL))
    assert ((settled[-1] > 0.0) & (settled[-1] < 1.0)).all()
    # With a shorter cap fewer pairs are resolved; each is at the corner it
    # reaches with the long cap, and every other pair is strictly inside.
    count = 0
    for n_steps in (1, 8, 24, 64):
        finals = batch_final_states(games, GRID, horizon=0.25 * n_steps)
        corner = _on_corner(finals)
        assert (finals[corner] == settled[corner]).all()
        assert ((finals[~corner] > 0.0) & (finals[~corner] < 1.0)).all()
        assert corner.sum() >= count
        count = corner.sum()
    assert 0 < count < resolved.sum()


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
    with pytest.raises(IntegrationError, match="step 1"):
        batch_final_states(games, starts, step=1.7e308, horizon=1.7e308)
    # An edge start is stepped too; its finite coordinate overflows.  A
    # corner start is a fixed point and takes no step.
    with pytest.raises(IntegrationError, match="step 1"):
        batch_final_states(games, [PopulationState(0.0, 0.5)], step=1.7e308, horizon=1.7e308)
    corner = batch_final_states(games, [PopulationState(1.0, 0.0)], step=1.7e308, horizon=1.7e308)
    assert tuple(corner[0, 0]) == (1.0, 0.0)


def batch_final_states_reference(games, starts, step=0.25, horizon=1e5):
    """Reference for :func:`batch_final_states`: the same leapfrog, trap
    test and finiteness check vectorized over every active pair down to the
    last one, with no float tail."""
    _check_span(step, horizon)
    finals = np.empty((len(games), len(starts), 2))
    if finals.size == 0:
        return finals
    finals[...] = [(s.beta, s.alpha) for s in starts]
    columns = np.array([g.as_tuple() for g in games], dtype=float).T
    k0, k1, g0, g1 = brackets(*columns)
    with np.errstate(divide="ignore"):
        xs, ys = (np.log(p) - np.log1p(-p) for p in finals[0].T)
    n_steps = int(round(horizon / step))
    taken = 0
    with np.errstate(over="ignore", invalid="ignore"):
        scaled_step = step / _time_scale(k0, k1, g0, g1)
        hk0, hk1, hg0, hg1 = (scaled_step * c for c in (k0, k1, g0, g1))
        dx = hk0[:, None] + hk1[:, None] * _sigmoid(ys)
        dy = hg0[:, None] + hg1[:, None] * _sigmoid(xs)
        still = ((np.isinf(xs) | (dx == 0.0)) & (np.isinf(ys) | (dy == 0.0))).ravel()
        pair = np.flatnonzero(~still)
        game, start = np.divmod(pair, len(starts))
        x0, y0 = xs[start], ys[start]
        x, y = x0.copy(), y0.copy()
        hk0, hk1, hg0, hg1 = (c[game] for c in (hk0, hk1, hg0, hg1))
        sx0, sx1, sy0, sy1 = (c[game] for c in corner_signs(*columns))
        for z0, h0, h1, s0, s1 in ((x0, hk0, hk1, sx0, sx1), (y0, hg0, hg1, sy0, sy1)):
            edge = np.isinf(z0)
            h0[edge], h1[edge] = z0[edge], 0.0
            s0[edge] = s1[edge] = np.sign(z0[edge])
        vx = hk0 + hk1 * _sigmoid(y)
        flat = finals.reshape(-1, 2)
        while pair.size and taken < n_steps:
            block = min(TRAP_TEST_STRIDE, n_steps - taken)
            for _ in range(block):
                x += 0.5 * vx
                y += hg0 + hg1 * _sigmoid(x)
                vx = hk0 + hk1 * _sigmoid(y)
                x += 0.5 * vx
            taken += block
            if not ((np.isfinite(x) | (x == x0)).all() and (np.isfinite(y) | (y == y0)).all()):
                raise IntegrationError(f"non-finite state at step {taken}")
            vy = hg0 + hg1 * _sigmoid(x)
            to_beta, to_alpha = vx > 0.0, vy > 0.0
            trapped = ((vx * np.where(to_alpha, sx1, sx0) > 0.0)
                       & (vy * np.where(to_beta, sy1, sy0) > 0.0))
            if trapped.any():
                flat[pair[trapped]] = np.stack([to_beta, to_alpha], axis=-1)[trapped]
                keep = ~trapped
                pair, x, y, x0, y0, vx, hk0, hk1, hg0, hg1, sx0, sx1, sy0, sy1 = (
                    v[keep] for v in (pair, x, y, x0, y0, vx, hk0, hk1, hg0, hg1,
                                      sx0, sx1, sy0, sy1)
                )
        for column, z in enumerate((x, y)):
            p = _sigmoid(z)
            flat[pair, column] = np.where(np.isinf(z), p, np.clip(p, _ABOVE_ZERO, _BELOW_ONE))
    return finals


#: The first 50 games of master seed 1 are hyperbolic.  From (0.001, 0.001)
#: games 6 and 38 take 664 and 528 leapfrog steps, most of them as the last
#: pairs active; the others are trapped within 240.
SLOW_GAMES = (6, 38)
#: A one-ulp change in exp seldom reaches a final state.  From these starts,
#: ``math.exp`` in place of ``np.exp`` changes the last state of 4 of the
#: 115 pairs of games 7, 33, 6 and 38 of master seed 1 unresolved after 8
#: steps, and of 3 of the 61 unresolved after 24.
DECIMAL_GRID = [PopulationState(b / 10, a / 10) for b in range(1, 10) for a in range(1, 10)]
_COORDINATES = st.one_of(st.sampled_from([0.0, 1e-3, 0.5, 1.0 - 1e-3, 1.0]),
                         st.floats(1e-3, 1.0 - 1e-3))


@st.composite
def oracle_panels(draw):
    """Fast and slow games of master seed 1 in any order, edge, corner and
    interior starts next to (0.001, 0.001), and a cap of 1 to 64 steps or
    the default horizon: from 2 to 66 pairs, so that some calls start on
    floats and others hand a vector head's last pairs to the float tail."""
    indices = draw(st.permutations(draw(st.lists(st.integers(0, 49), max_size=4))
                                   + list(SLOW_GAMES)))
    starts = [(1e-3, 1e-3)] + draw(st.lists(st.tuples(_COORDINATES, _COORDINATES),
                                             max_size=10))
    cap = draw(st.sampled_from([1, 8, 24, 64, None]))
    return ([_seed_one_game(i) for i in indices], [PopulationState(*s) for s in starts], cap)


@settings(max_examples=60, deadline=None)
@given(panel=oracle_panels())
@example(panel=([_seed_one_game(i) for i in range(50)], CRITERION_10_STARTS, None))
@example(panel=([_seed_one_game(i) for i in (7, 33, 6, 38)], DECIMAL_GRID, 8))
@example(panel=([_seed_one_game(i) for i in (7, 33, 6, 38)], DECIMAL_GRID, 24))
@example(panel=([_seed_one_game(i) for i in (0, 6, 38)],
                [PopulationState(b, a) for b in (1e-3, 0.5, 1.0) for a in (1e-3, 0.0, 0.7)],
                64))
def test_batch_final_states_matches_the_vector_reference(panel):
    # Bit for bit, unresolved pairs' last states included: as a batch, and
    # with each pair run alone, which runs on floats from its first step.
    games, starts, cap = panel
    span = {} if cap is None else {"horizon": 0.25 * cap}
    finals = batch_final_states(games, starts, **span)
    assert np.array_equal(finals, batch_final_states_reference(games, starts, **span))
    alone = [[batch_final_states([g], [s], **span)[0, 0] for s in starts] for g in games]
    assert np.array_equal(finals, alone)


def test_batch_final_states_names_the_earliest_failing_block():
    # On LATE, x runs toward +inf at the full scaled step (k0 = s, k1 = 0)
    # while y, once sigma(x) = 1, moves by hg0 + hg1 = 0 exactly and never
    # traps (A1 = 0), so x overflows only at the 18th step of 1e307.  TINY's
    # time scale of 2**-21 overflows the scaled step, so its pair fails in
    # the first block.  Run one after the other, the later pair's block is
    # the one named, as in the vector loop.
    late = GameParams(w=1.0, c_a=0.25, c_d=0.125, b_a=0.5, b_d=1.0, v=0.5)
    tiny = scaled_payoffs(NEUTRAL, 2.0**-20)
    assert field_coefficients(late) == (0.875, 0.0, 0.25, -0.25)
    starts = [PopulationState(0.5, 1e-300)]
    span = {"step": 1e307, "horizon": 1.79e308}
    for games, step in (([late], 18), ([tiny], 8), ([late, tiny], 8), ([tiny, late], 8)):
        with pytest.raises(IntegrationError) as expected:
            batch_final_states_reference(games, starts, **span)
        with pytest.raises(IntegrationError) as raised:
            batch_final_states(games, starts, **span)
        assert str(raised.value) == str(expected.value) == f"non-finite state at step {step}"
