"""Fixed points, Jacobians, eigenvalues, and stability classification."""

import math

import numpy as np
import pytest

from cyberevo import (
    Classification,
    EigenPair,
    EquilibriumKind,
    GameParams,
    Jacobian2,
    PopulationState,
    analyze_equilibria,
    classify,
    eigenvalues,
    field_coefficients,
    interior_equilibrium,
    jacobian,
    stable_set,
)

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
        for kind, expected in forms.items():
            beta, alpha = kind.corner
            jac = jacobian(params, PopulationState(float(beta), float(alpha)))
            assert jac.j12 == 0.0
            assert jac.j21 == 0.0
            eig = eigenvalues(jac)
            got = sorted((eig.lambda1.real, eig.lambda2.real))
            want = sorted(expected)
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


def test_eigenvalues_characteristic_residual_and_ordering():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        jac = Jacobian2(*(rng.uniform(-2, 2) for _ in range(4)))
        eig = eigenvalues(jac)
        for lam in (eig.lambda1, eig.lambda2):
            residual = lam * lam - jac.trace * lam + jac.det
            assert abs(residual) < 1e-10
        key1 = (eig.lambda1.real, eig.lambda1.imag)
        key2 = (eig.lambda2.real, eig.lambda2.imag)
        assert key1 >= key2
        # Complex eigenvalues of a real matrix come in conjugate pairs.
        if eig.lambda1.imag != 0.0:
            assert eig.lambda1 == eig.lambda2.conjugate()


def test_eigenvalues_triangular_exact():
    jac = Jacobian2(j11=0.3, j12=0.0, j21=-5.0, j22=-0.7)
    eig = eigenvalues(jac)
    assert (eig.lambda1, eig.lambda2) == (complex(0.3), complex(-0.7))


@pytest.mark.parametrize(
    "pair, expected",
    [
        ((complex(-1), complex(-2)), Classification.STABLE),
        ((complex(1), complex(2)), Classification.UNSTABLE),
        ((complex(1), complex(-1)), Classification.SADDLE),
        ((complex(-1e-10), complex(-1)), Classification.NON_HYPERBOLIC),
        ((complex(1e-10), complex(1)), Classification.NON_HYPERBOLIC),
        ((complex(-0.5, 2.0), complex(-0.5, -2.0)), Classification.STABLE),
        ((complex(0.5, 2.0), complex(0.5, -2.0)), Classification.UNSTABLE),
    ],
)
def test_classify_sign_patterns(pair, expected):
    assert classify(EigenPair(*pair)) is expected


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
        assert report.classification in (
            Classification.SADDLE,
            Classification.NON_HYPERBOLIC,
        )
    assert seen > 50


def test_interior_point_forces_negative_slopes_and_is_never_stable():
    # alpha* = -k0/k1 in (0, 1) with k0 = b_d - c_d > 0 needs k1 < -k0, and
    # beta* = -g0/g1 in (0, 1) with v <= 1 rules out g1 > 0.  So j12 and j21
    # are negative at E5 while its diagonal vanishes: real eigenvalues of
    # opposite signs, or non-hyperbolic, for games of any size.
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
            assert report.classification in (
                Classification.SADDLE,
                Classification.NON_HYPERBOLIC,
            )
    assert seen > 300, seen


def test_interior_absent_when_bracket_slope_vanishes():
    # v w = b_d (1 - v) makes the defender bracket independent of alpha,
    # so no interior root exists.
    params = GameParams(w=0.8, c_a=0.3, c_d=0.3, b_a=0.9, b_d=0.8, v=0.5)
    k0, k1, g0, g1 = field_coefficients(params)
    assert k1 == pytest.approx(0.0, abs=1e-15)
    assert interior_equilibrium(params) is None


def test_corner_stability_condition_algebra():
    # The eigenvalue classifier must agree with the sign conditions read
    # directly off the closed forms.
    rng = np.random.default_rng(44)
    for i in range(2000):
        params = random_params(rng, with_fines=(i % 3 == 0))
        k0, k1, g0, g1 = field_coefficients(params)
        d_full, b_full = k0 + k1, g0 + g1
        eps = 1e-9
        values = (k0, g0, d_full, b_full)
        if any(abs(value) <= eps for value in values):
            continue
        stable = stable_set(params)
        assert (EquilibriumKind.E2 in stable) == (g0 > 0 and d_full < 0)
        assert (EquilibriumKind.E3 in stable) == (b_full < 0)
        assert (EquilibriumKind.E4 in stable) == (b_full > 0 and d_full > 0)
        assert EquilibriumKind.E1 not in stable  # k0 = b_d - c_d > 0 always


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
