"""Fixed points, Jacobians, eigenvalues, and stability classification."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from cyberevo import (
    Classification,
    EquilibriumKind,
    GameParams,
    ParameterError,
    PopulationState,
    analyze_equilibria,
    cli,
    ensemble,
    equilibria,
    field_coefficients,
    interior_equilibrium,
    jacobian,
    stable_set,
)
from cyberevo.game import brackets, corner_signs

from test_game import LARGE_FINES, REF, random_params, wide_rows

SINGLE_STABLE = GameParams(**REF)
BISTABLE = GameParams(w=0.98, c_a=0.69, c_d=0.54, b_a=0.79, b_d=0.72, v=0.15)


def corner_eigen_closed_forms(params):
    """Eigenvalue sets at the four corners from the field coefficients.

    With brackets k0 + k1*alpha and g0 + g1*beta, the corner Jacobians are
    diagonal, so the eigenvalues are signed bracket values: plus at a
    frequency of 0 (the bracket is the growth rate of the rare strategy),
    minus at a frequency of 1.
    """
    k0, k1, g0, g1 = field_coefficients(params)
    d_full = k0 + k1  # defender bracket at alpha = 1
    b_full = g0 + g1  # attacker bracket at beta = 1
    return {
        EquilibriumKind.E1: {k0, g0},
        EquilibriumKind.E2: {d_full, -g0},
        EquilibriumKind.E3: {-k0, b_full},
        EquilibriumKind.E4: {-d_full, -b_full},
    }


def test_corner_jacobians_diagonal_and_closed_form():
    rng = np.random.default_rng(40)
    for i in range(1000):
        params = random_params(rng, with_fines=(i % 2 == 1))
        forms = corner_eigen_closed_forms(params)
        for report in analyze_equilibria(params)[:4]:
            jac, eig = report.jacobian, report.eigen
            assert jac.j12 == 0.0
            assert jac.j21 == 0.0
            got = sorted((eig.lambda1.real, eig.lambda2.real))
            want = sorted(forms[report.kind])
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == pytest.approx(want[1], abs=1e-12)
            assert eig.lambda1.imag == 0.0
            assert eig.lambda2.imag == 0.0


def test_jacobian_closed_form_entries():
    rng = np.random.default_rng(41)
    for _ in range(200):
        params = random_params(rng, with_fines=True)
        k0, k1, g0, g1 = field_coefficients(params)
        state = PopulationState(rng.uniform(), rng.uniform())
        beta, alpha = state.beta, state.alpha
        jac = jacobian(params, state)
        assert jac.j11 == pytest.approx((1 - 2 * beta) * (k0 + k1 * alpha), abs=1e-12)
        assert jac.j12 == pytest.approx(beta * (1 - beta) * k1, abs=1e-12)
        assert jac.j21 == pytest.approx(alpha * (1 - alpha) * g1, abs=1e-12)
        assert jac.j22 == pytest.approx((1 - 2 * alpha) * (g0 + g1 * beta), abs=1e-12)
        assert jac.trace == jac.j11 + jac.j22
        assert jac.det == pytest.approx(
            jac.j11 * jac.j22 - jac.j12 * jac.j21, abs=1e-15
        )


def test_single_stable_reference_game():
    reports = {r.kind: r for r in analyze_equilibria(SINGLE_STABLE)}
    assert reports[EquilibriumKind.E4].classification is Classification.STABLE
    for kind in (EquilibriumKind.E1, EquilibriumKind.E2, EquilibriumKind.E3):
        assert reports[kind].classification is not Classification.STABLE
    eig = reports[EquilibriumKind.E4].eigen
    assert eig.lambda1.real == pytest.approx(-0.156, abs=1e-12)
    assert eig.lambda2.real == pytest.approx(-0.2602, abs=1e-12)
    assert stable_set(SINGLE_STABLE) == frozenset({EquilibriumKind.E4})
    assert interior_equilibrium(SINGLE_STABLE) is None


def test_bistable_game_with_interior_saddle():
    assert stable_set(BISTABLE) == frozenset(
        {EquilibriumKind.E2, EquilibriumKind.E3}
    )
    interior = interior_equilibrium(BISTABLE)
    assert interior is not None
    assert interior.beta == pytest.approx(0.843882, abs=1e-6)
    assert interior.alpha == pytest.approx(0.387097, abs=1e-6)
    reports = {r.kind: r for r in analyze_equilibria(BISTABLE)}
    e5 = reports[EquilibriumKind.E5]
    assert e5.classification is Classification.SADDLE
    assert e5.jacobian.trace == 0.0
    assert e5.eigen.lambda1 == -e5.eigen.lambda2
    assert abs(e5.eigen.lambda1.real) == pytest.approx(0.041501, abs=1e-5)


def test_low_benefit_game_is_single_stable_at_undefended_attack():
    # Weak defender incentives: only "no defence, attack" survives.
    params = GameParams(w=0.43, c_a=0.29, c_d=0.34, b_a=0.52, b_d=0.37, v=0.24)
    assert stable_set(params) == frozenset({EquilibriumKind.E2})


def test_interior_point_trace_free_hence_never_stable():
    rng = np.random.default_rng(43)
    seen = 0
    for _ in range(3000):
        params = random_params(rng)
        interior = interior_equilibrium(params)
        if interior is None:
            continue
        seen += 1
        jac = jacobian(params, interior)
        assert abs(jac.trace) < 1e-12
        report = analyze_equilibria(params)[-1]
        assert report.kind is EquilibriumKind.E5
        assert report.classification is Classification.SADDLE
    assert seen > 50


def test_interior_point_forces_negative_slopes_and_is_never_stable():
    # alpha* = -k0/k1 in (0, 1) with k0 = b_d - c_d > 0 needs k1 < -k0, and
    # beta* = -g0/g1 in (0, 1) with v <= 1 rules out g1 > 0.  So j12 and j21
    # are negative at E5 while its diagonal vanishes: real eigenvalues of
    # opposite signs, a Saddle, for games of any size.
    rng = np.random.default_rng(48)
    seen = 0
    for f_s, f_u in LARGE_FINES:
        for row in wide_rows(rng, 500).tolist():
            params = GameParams(*row, f_s, f_u)
            interior = interior_equilibrium(params)
            if interior is None:
                continue
            seen += 1
            _, k1, _, g1 = field_coefficients(params)
            assert k1 < 0.0 and g1 < 0.0
            report = analyze_equilibria(params)[-1]
            assert report.kind is EquilibriumKind.E5
            assert report.location == interior
            assert report.classification is Classification.SADDLE
    assert seen > 300, seen


def test_interior_absent_when_bracket_slope_vanishes():
    # v w = b_d (1 - v) makes the defender bracket independent of alpha,
    # so no interior root exists.
    params = GameParams(w=0.8, c_a=0.3, c_d=0.3, b_a=0.9, b_d=0.8, v=0.5)
    k0, k1, g0, g1 = field_coefficients(params)
    assert k1 == pytest.approx(0.0, abs=1e-15)
    assert interior_equilibrium(params) is None


#: The README game's sign pattern: E4 the one stable corner.
REF_CLASSES = [
    Classification.UNSTABLE, Classification.SADDLE, Classification.SADDLE,
    Classification.STABLE,
]

#: A NonHyperbolic game: k0 + k1 = 0 exactly, so E2 and E4 are undecided.
NEUTRAL = GameParams(w=1.0, c_a=0.25, c_d=0.375, b_a=0.75, b_d=0.5, v=0.25)

#: A valid game with an interior point and b_a, f_u near 1e173, where the
#: unscaled E5 discriminant overflows.
HUGE = GameParams(
    w=0.9, c_a=0.3, c_d=0.5, b_a=1.1439891251442615e+173, b_d=0.8,
    v=0.25918195560174573, fine_unsuccessful=5.594696268405954e+173,
)


#: k0 + k1 computes to -2.8e-17, but is +5.8e-18 exactly.
ROUNDS_WRONG = GameParams(
    0.6069125640060286, 0.605327403857063, 0.31513684056964375, 0.9298726090717624,
    0.44582257109556156, 0.2993505489291309, 0.3245452052146993,
)

#: Subnormal payoffs where v*b_d and v*w both round up by half a unit, so
#: k0 + k1 computes to 2**-1074 but is exactly zero.
SUBNORMAL_TIE = GameParams(
    w=6 * 2.0**-1074, c_a=2.0**-1074, c_d=3 * 2.0**-1074, b_a=2 * 2.0**-1074,
    b_d=6 * 2.0**-1074, v=0.25,
)


#: Game 80 of master seed 1: E2 and E3 stable, E5 at (0.9395, 0.5365).
GAME_80 = GameParams(
    w=0.7543810978906548, c_a=0.18066831913979656, c_d=0.2983870006211119,
    b_a=0.19373863989058016, b_d=0.5364639476975703, v=0.07180605429917408,
)

#: Valid, with an interior point whose beta* = 1e-300 / 2e299 underflows.
UNDERFLOWING_ROOT = GameParams(
    w=1.0, c_a=1e-300, c_d=0.5, b_a=2e-300, b_d=0.6, v=0.2, fine_unsuccessful=1e300,
)


def _scaled(params, scale):
    """``params`` with every payoff and fine (all but v) times ``scale``."""
    w, c_a, c_d, b_a, b_d, v, f_s, f_u = params.as_tuple()
    return GameParams(*(x * scale for x in (w, c_a, c_d, b_a, b_d)), v, f_s * scale, f_u * scale)


def _sign(x):
    return (x > 0) - (x < 0)


#: The class of each exact pair of eigenvalue signs, sorted.
EXACT_CLASSES = {
    (-1, -1): Classification.STABLE,
    (1, 1): Classification.UNSTABLE,
    (-1, 1): Classification.SADDLE,
}


def _exact_eigenvalue_signs(params):
    """Each fixed point's eigenvalue signs, from the brackets in rational arithmetic.

    The corners read the brackets' exact signs (see the equilibria module
    docstring); E5 is (+1, -1) where both brackets exactly change sign
    between their edges, so both roots lie in (0, 1), else (0, 0).
    """
    k0, k1, g0, g1 = brackets(*map(Fraction, params.as_tuple()))
    d0, d1, a0, a1 = _sign(k0), _sign(k0 + k1), _sign(g0), _sign(g0 + g1)
    present = int(d0 * d1 < 0 and a0 * a1 < 0)
    return ((d0, a0), (d1, -a0), (-d0, a1), (-d1, -a1), (present, -present))


@st.composite
def valid_games(draw):
    """Valid games of any size: b_a and both fines up to 1e300, subnormals included."""
    unit = st.floats(0.0, 1.0, exclude_min=True)
    fine = st.one_of(st.just(0.0), st.floats(0.0, 1e300))
    w = draw(unit)
    c_a, c_d = w * draw(unit), w * draw(unit)
    b_a = c_a + draw(st.floats(0.0, 1e300, exclude_min=True))
    b_d = c_d + (w - c_d) * draw(unit)
    try:
        return GameParams(w, c_a, c_d, b_a, b_d, draw(unit), draw(fine), draw(fine))
    except ParameterError:
        reject()


@settings(max_examples=400, deadline=None)
@given(params=valid_games())
@example(params=NEUTRAL)
@example(params=HUGE)
@example(params=GameParams(**REF))
@example(params=GameParams(w=0.98, c_a=0.69, c_d=0.54, b_a=0.79, b_d=0.72, v=0.15))
@example(params=GameParams(0.9, 0.4, 0.2, 0.8, 0.6, 0.5))
@example(params=ROUNDS_WRONG)
@example(params=SUBNORMAL_TIE)
@example(params=GAME_80)
@example(params=UNDERFLOWING_ROOT)
def test_decided_signs_match_exact_arithmetic(params):
    # Every bracket sign the verdict decides is the sign of that bracket
    # evaluated exactly, in rational arithmetic, on the same floats.
    game = params.as_tuple()
    e0, e1, f0, f1 = brackets(*map(Fraction, game))
    for sign, exact in zip(corner_signs(*game), (e0, e0 + e1, f0, f0 + f1)):
        assert sign in (0.0, _sign(exact))
    # So every verdict but NonHyperbolic is the exact sign pattern, and a
    # decided corner reports eigenvalues with those signs.  E5 is reported
    # only where it exactly exists, and wherever it does once all four
    # corners are decided.
    reports = analyze_equilibria(params)
    truths = _exact_eigenvalue_signs(params)
    if all(r.classification is not Classification.NON_HYPERBOLIC for r in reports[:4]):
        assert (len(reports) == 5) == (truths[4] == (1, -1))
    for report, truth in zip(reports, truths):
        if report.classification is Classification.NON_HYPERBOLIC:
            continue
        assert report.classification is EXACT_CLASSES.get(tuple(sorted(truth)))
        eigen = (report.eigen.lambda1, report.eigen.lambda2)
        assert sorted(_sign(lam.real) for lam in eigen) == sorted(truth)
    stable = stable_set(params)
    assert EquilibriumKind.E1 not in stable  # k0 = b_d - c_d > 0 always
    table, interior = equilibria.stable_table(*(np.array([value]) for value in game))
    assert table[0].tolist() == [kind in stable for kind in EquilibriumKind]
    assert interior[0] == (len(reports) == 5)


@settings(max_examples=300, deadline=None)
@given(params=valid_games())
@example(params=HUGE)
@example(params=GAME_80)
@example(params=UNDERFLOWING_ROOT)
@example(params=SUBNORMAL_TIE)
def test_eigenvalues_characteristic_residual_and_ordering(params):
    # Each report's eigenvalues are roots of its own Jacobian's
    # characteristic polynomial, real, and ordered by descending real part,
    # then descending imaginary part.  A corner's are its diagonal, so the
    # residual, evaluated exactly, is zero; E5's are +-sqrt(j12 * j21), a few
    # roundings off.  Where a root or an off-diagonal entry of E5 lies below
    # 2**-1000, the reported entries have lost bits that the eigenvalues keep
    # (see equilibria._interior_rate), so only the ordering is checked there.
    for report in analyze_equilibria(params):
        jac, eig = report.jacobian, report.eigen
        assert (eig.lambda1.real, eig.lambda1.imag) >= (eig.lambda2.real, eig.lambda2.imag)
        assert eig.lambda1.imag == eig.lambda2.imag == 0.0
        tiny = min(report.location.beta, report.location.alpha, abs(jac.j12), abs(jac.j21))
        if report.kind is EquilibriumKind.E5 and tiny < 2.0**-1000:
            continue
        j11, j12, j21, j22 = map(Fraction, (jac.j11, jac.j12, jac.j21, jac.j22))
        for lam in map(Fraction, (eig.lambda1.real, eig.lambda2.real)):
            residual = lam * lam - (j11 + j22) * lam + j11 * j22 - j12 * j21
            scale = lam * lam + abs(j11 * j22) + abs(j12 * j21)
            assert abs(residual) <= scale / 2**40


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e-9, 1e-11, 1e-100, 1e-300])
def test_verdict_is_scale_free(scale):
    # Scaling every payoff (v is a probability) rescales time only, so the
    # verdicts of the README game and of the bistable game 80 are the same
    # at every scale, E5 included.
    params = _scaled(GameParams(**REF), scale)
    assert [r.classification for r in analyze_equilibria(params)] == REF_CLASSES
    table, _ = equilibria.stable_table(*(np.array([value]) for value in params.as_tuple()))
    assert table[0].tolist() == [kind is EquilibriumKind.E4 for kind in EquilibriumKind]
    params = _scaled(GAME_80, scale)
    assert [r.classification for r in analyze_equilibria(params)] == [
        Classification.UNSTABLE, Classification.STABLE, Classification.STABLE,
        Classification.UNSTABLE, Classification.SADDLE,
    ]
    assert interior_equilibrium(params) is not None
    table, interior = equilibria.stable_table(*(np.array([value]) for value in params.as_tuple()))
    assert table[0].tolist() == [False, True, True, False, False]
    assert interior[0]


@st.composite
def scaled_games(draw):
    """:func:`valid_games`, with every payoff and fine scaled by 1 or down to 1e-300."""
    params = draw(valid_games())
    try:
        return _scaled(params, draw(st.one_of(st.just(1.0), st.floats(1e-300, 1.0))))
    except ParameterError:
        reject()


@settings(max_examples=300, deadline=None)
@given(params=scaled_games())
@example(params=_scaled(GAME_80, 1e-11))
@example(params=HUGE)
@example(params=UNDERFLOWING_ROOT)
def test_two_stable_corners_exactly_when_interior_point(params):
    # E2 stable is D1 < 0 < A0 and E3 stable is A1 < 0 < D0; since D0 > 0
    # and A0 < 0 < A1 cannot happen, both hold exactly when both brackets
    # change sign along their edges, which is E5's presence.
    present = interior_equilibrium(params) is not None
    assert (len(stable_set(params)) == 2) == present
    assert (len(analyze_equilibria(params)) == 5) == present
    _, interior = equilibria.stable_table(*(np.array([value]) for value in params.as_tuple()))
    assert interior[0] == present


@settings(max_examples=300, deadline=None)
@given(params=scaled_games())
@example(params=_scaled(GAME_80, 1e-300))
@example(params=HUGE)
@example(params=UNDERFLOWING_ROOT)
def test_interior_point_lies_strictly_inside_the_square(params):
    # The sign rule needs no margin: where it finds E5, the computed roots
    # are inside the open interval, underflow included.
    interior = interior_equilibrium(params)
    if interior is not None:
        assert 0.0 < interior.beta < 1.0 and 0.0 < interior.alpha < 1.0
        assert analyze_equilibria(params)[-1].location == interior


@pytest.mark.parametrize(
    "params", [BISTABLE, GAME_80, HUGE, UNDERFLOWING_ROOT],
    ids=["bistable", "game80", "huge", "underflowing-root"],
)
def test_interior_eigenvalues_are_exact(params):
    # At the exact interior point the diagonal vanishes, so the eigenvalues
    # are +-sqrt(j12 * j21); compare with the Jacobian there in Fraction.
    # UNDERFLOWING_ROOT's beta* and j12 lie below the float64 range, and
    # its eigenvalues near 2.5e-151 are far below approx's default abs
    # tolerance, so the tolerance is relative only.
    k0, k1, g0, g1 = brackets(*map(Fraction, params.as_tuple()))
    beta, alpha = -g0 / g1, -k0 / k1
    exact = math.sqrt(beta * (1 - beta) * k1 * alpha * (1 - alpha) * g1)
    e5 = analyze_equilibria(params)[-1]
    assert e5.kind is EquilibriumKind.E5
    assert (e5.jacobian.j11, e5.jacobian.j22) == (0.0, 0.0)
    assert e5.eigen.lambda1.imag == e5.eigen.lambda2.imag == 0.0
    assert e5.eigen.lambda1.real == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert e5.eigen.lambda2.real == pytest.approx(-exact, rel=1e-12, abs=0.0)


def test_exact_zero_bracket_is_non_hyperbolic():
    k0, k1, _, _ = field_coefficients(NEUTRAL)
    assert k0 + k1 == 0.0
    reports = {r.kind: r.classification for r in analyze_equilibria(NEUTRAL)}
    assert reports[EquilibriumKind.E2] is Classification.NON_HYPERBOLIC
    assert reports[EquilibriumKind.E4] is Classification.NON_HYPERBOLIC


def test_huge_game_is_classified_everywhere(capsys):
    # Its unscaled E5 discriminant overflowed: analyze_equilibria, stable_set,
    # the ensemble's table verdict and ``cyberevo analyze`` all raised.
    reports = analyze_equilibria(HUGE)
    assert [r.classification for r in reports] == [
        Classification.UNSTABLE, Classification.STABLE, Classification.STABLE,
        Classification.UNSTABLE, Classification.SADDLE,
    ]
    for report in reports:
        for lam in (report.eigen.lambda1, report.eigen.lambda2):
            assert math.isfinite(lam.real) and math.isfinite(lam.imag)
    assert stable_set(HUGE) == {EquilibriumKind.E2, EquilibriumKind.E3}
    table = ensemble._analyze(np.array([HUGE.as_tuple()[:6]]), HUGE.as_tuple()[6:], 0)
    assert table.stable[0].tolist() == [False, True, True, False, False]
    assert table.interior[0]
    flags = ["--w", "0.9", "--ca", "0.3", "--cd", "0.5", "--ba", repr(HUGE.b_a),
             "--bd", "0.8", "--v", repr(HUGE.v), "--fu", repr(HUGE.fine_unsuccessful)]
    assert cli.main(["analyze", *flags]) == 0
    result = json.loads(capsys.readouterr().out.split("\n", 1)[1])["result"]
    assert result["stable_set"] == ["E2", "E3"]


def test_multistability_is_only_the_deterrence_pair():
    rng = np.random.default_rng(45)
    pairs = set()
    for _ in range(2000):
        params = random_params(rng)
        stable = stable_set(params)
        assert len(stable) <= 2
        if len(stable) == 2:
            pairs.add(tuple(sorted(kind.value for kind in stable)))
    assert pairs <= {("E2", "E3")}


def test_analyze_order_and_locations():
    reports = analyze_equilibria(BISTABLE)
    kinds = [r.kind.value for r in reports]
    assert kinds == ["E1", "E2", "E3", "E4", "E5"]
    for report in reports[:4]:
        assert (report.location.beta, report.location.alpha) == report.kind.corner
    reports = analyze_equilibria(SINGLE_STABLE)
    assert [r.kind.value for r in reports] == ["E1", "E2", "E3", "E4"]
