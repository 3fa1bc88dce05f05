"""Parameters, payoff matrix, fines, fitness, and social welfare."""

import dataclasses
import math
import re

import numpy as np
import pytest

from cyberevo import (
    STRATEGY_PAIRS,
    ZERO_FINES,
    FineScenario,
    GameParams,
    ParameterError,
    PopulationState,
    build_payoff_matrix,
    fitness_profile,
    social_welfare,
)

# Reference game with a single stable corner at full defence / full attack.
REF = dict(w=0.98, c_a=0.51, c_d=0.20, b_a=0.90, b_d=0.79, v=0.26)


def random_params(rng, with_fines=False):
    w = 1.0 - rng.uniform()
    c_a = w * rng.uniform(1e-6, 1.0 - 1e-6)
    c_d = w * rng.uniform(1e-6, 1.0 - 1e-6)
    b_a = c_a + (1.0 - c_a) * rng.uniform(1e-6, 1.0)
    b_d = c_d + (w - c_d) * rng.uniform(1e-6, 1.0)
    v = 1.0 - rng.uniform()
    extra = {}
    if with_fines:
        # The paper's catch probabilities m, n and penalties p, s, held as
        # the expected fines m*p and n*s.
        m, n = rng.uniform(), rng.uniform()
        p, s = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
        extra = dict(fine_successful=m * p, fine_unsuccessful=n * s)
    return GameParams(w=w, c_a=c_a, c_d=c_d, b_a=b_a, b_d=b_d, v=v, **extra)


#: (fine_successful, fine_unsuccessful) pairs from none up to 1e12.
LARGE_FINES = (
    (0.0, 0.0), (1e-3, 1.0), (0.0, 1e6), (1.0, 1e12), (1e6, 1e12), (1e12, 1e12),
    (1e12, 0.0),
)


def wide_rows(rng, n):
    """``n`` valid draws of the six drawn parameters, b_a up to about 1e15.

    b_a - c_a is log-uniform over [1e-6, 1e15].  In every other row v lies
    below c_d / (b_d + w), where the defender bracket's root alpha* is
    inside (0, 1), so that with large enough fines interior points are
    common.
    """
    w = 1.0 - rng.uniform(size=n)
    c_a = w * rng.uniform(1e-6, 1.0 - 1e-6, n)
    c_d = w * rng.uniform(1e-6, 1.0 - 1e-6, n)
    b_a = c_a + 10.0 ** rng.uniform(-6.0, 15.0, n)
    b_d = c_d + (w - c_d) * rng.uniform(1e-6, 1.0, n)
    v = 1.0 - rng.uniform(size=n)
    v[::2] *= c_d[::2] / (b_d[::2] + w[::2])
    return np.stack([w, c_a, c_d, b_a, b_d, v], axis=1)


def test_valid_construction():
    params = GameParams(**REF)
    assert params.w == 0.98
    assert params.fine_successful == params.fine_unsuccessful == 0.0
    assert len(dataclasses.fields(params)) == 8


def test_params_immutable():
    params = GameParams(**REF)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.w = 0.5


#: One violation of each constraint on the six drawn parameters, as a change
#: to REF and the constraint it must be reported under.
DRAWN_VIOLATIONS = [
    (dict(w=0.0), "0 < w <= 1"),
    (dict(w=1.5), "0 < w <= 1"),
    (dict(c_a=0.0), "0 < c_a < w"),
    (dict(c_a=0.99), "0 < c_a < w"),
    (dict(c_d=0.0), "0 < c_d < w"),
    (dict(c_d=0.98), "0 < c_d < w"),
    (dict(b_a=0.51), "c_a < b_a"),
    (dict(b_d=0.99), "c_d < b_d <= w"),
    (dict(b_d=0.1), "c_d < b_d <= w"),
    (dict(v=0.0), "0 < v <= 1"),
    (dict(v=1.01), "0 < v <= 1"),
    (dict(w=math.nan), "w finite"),
    (dict(b_a=math.inf), "b_a finite"),
]

FINE_VIOLATIONS = [
    (dict(fine_successful=math.inf), "fine_successful finite"),
    (dict(fine_unsuccessful=math.nan), "fine_unsuccessful finite"),
    (dict(fine_successful=-1.0), "fine_successful >= 0"),
    (dict(fine_unsuccessful=-1.0), "fine_unsuccessful >= 0"),
]


# The fine cases sit between the range and the finiteness cases, so each
# case's index in its test id stays fixed.
@pytest.mark.parametrize(
    "bad, named", DRAWN_VIOLATIONS[:-2] + FINE_VIOLATIONS + DRAWN_VIOLATIONS[-2:]
)
def test_constraint_violations_named(bad, named):
    with pytest.raises(ParameterError, match="constraint violated") as info:
        GameParams(**{**REF, **bad})
    assert named in str(info.value)


# The one number rule: a real field takes a finite real number and no bool
# (errors.is_real), an integer field an integer and no bool
# (errors.is_integer).  One table of entry points, spread over this file,
# test_ensemble.py and test_dynamics.py.  Each row names the values of
# NOT_REAL the entry point used to keep, or to fail on with a bare
# TypeError or OverflowError; the others were already refused by name.

#: Values that are no finite real number, by test id.
NOT_REAL = {
    "bool": True, "numpy-bool": np.bool_(True), "string": "0.5", "none": None,
    "int-beyond-float": 10**400, "nan": math.nan, "inf": math.inf, "minus-inf": -math.inf,
}
#: The NOT_REAL ids that a bare comparison lets through (the bools) or
#: fails on with a TypeError (the string and None).
NOT_A_NUMBER = ("bool", "numpy-bool", "string", "none")


def number_rule_cases(rows):
    """pytest params (call, value, named) for rows of (entry id, call, named,
    refused NOT_REAL ids, accepted values); ``named`` is None where
    ``value`` is accepted."""
    cases = []
    for entry, call, named, refused, accepted in rows:
        cases += [pytest.param(call, NOT_REAL[key], named, id=f"{entry}-{key}")
                  for key in refused]
        cases += [pytest.param(call, value, None, id=f"{entry}-{type(value).__name__}")
                  for value in accepted]
    return cases


def check_number_rule(error, call, value, named):
    """``call(value)`` raises ``error`` naming ``named``, or, without one, returns."""
    if named is None:
        call(value)
    else:
        with pytest.raises(error, match=re.escape(named)):
            call(value)


GAME_NUMBERS = [
    (f"GameParams-{field}", lambda x, field=field: GameParams(**{**REF, field: x}),
     f"{field} finite real", NOT_A_NUMBER + ("int-beyond-float",), accepted)
    for field, accepted in [
        ("w", [1, np.float32(0.98), np.int64(1)]),
        ("v", [1, np.float32(0.26), np.int64(1)]),
        ("fine_successful", [2, np.float32(0.5), np.int64(0)]),
    ]
] + [
    (f"FineScenario-{field}", lambda x, field=field: FineScenario(**{field: x}),
     f"{field} finite real", NOT_A_NUMBER + ("int-beyond-float",),
     [2, np.float32(0.5), np.int64(0)])
    for field in ("f_u", "f_s")
] + [
    ("PopulationState-beta", lambda x: PopulationState(x, 0.5), "0 <= beta <= 1",
     NOT_A_NUMBER, [1, np.float32(0.5), np.int64(0)]),
    ("PopulationState-alpha", lambda x: PopulationState(0.5, x), "0 <= alpha <= 1",
     NOT_A_NUMBER, [1, np.float32(0.5), np.int64(0)]),
]


@pytest.mark.parametrize("call, value, named", number_rule_cases(GAME_NUMBERS))
def test_game_types_check_numbers(call, value, named):
    check_number_rule(ParameterError, call, value, named)


def test_payoff_matrix_reference_values():
    matrix = build_payoff_matrix(GameParams(**REF))
    expected = {
        STRATEGY_PAIRS[0]: (0.0, 0.0),
        STRATEGY_PAIRS[1]: (-0.98, 0.39),
        STRATEGY_PAIRS[2]: (0.59, 0.0),
        STRATEGY_PAIRS[3]: (-0.7198, 0.156),
    }
    assert list(matrix) == list(STRATEGY_PAIRS)
    for pair, (d, a) in expected.items():
        assert matrix[pair] == pytest.approx((d, a), abs=1e-12)


def test_fines_enter_only_via_products():
    # The expected fines m*p and n*s lower only the attacker's payoffs: by
    # m*p after a successful attack, by n*s after a defeated one.
    base = build_payoff_matrix(GameParams(**REF))
    fined = build_payoff_matrix(
        GameParams(**REF, fine_successful=0.5 * 0.4, fine_unsuccessful=0.25 * 0.4)
    )
    v = REF["v"]
    drops = [0.0, 0.2, 0.0, (1.0 - v) * 0.2 + v * 0.1]
    for pair, drop in zip(STRATEGY_PAIRS, drops):
        assert fined[pair][0] == base[pair][0]
        drop_seen = base[pair][1] - fined[pair][1]
        assert drop_seen == pytest.approx(drop, abs=1e-15)


def test_fine_scenario_apply():
    params = GameParams(**REF)
    fined = FineScenario(f_u=0.3, f_s=0.7).apply(params)
    assert (fined.fine_successful, fined.fine_unsuccessful) == (0.7, 0.3)
    # Non-fine parameters untouched.
    assert (fined.w, fined.c_a, fined.b_a) == (params.w, params.c_a, params.b_a)
    # "No fines" has one representation.
    assert ZERO_FINES.apply(params) == params
    for bad, named in [(dict(f_u=-0.1), "f_u >= 0"), (dict(f_s=math.inf), "f_s finite"),
                       (dict(f_u=math.nan), "f_u finite")]:
        with pytest.raises(ParameterError, match=named):
            FineScenario(**bad)


def test_fines_reduce_attacker_payoffs_only():
    rng = np.random.default_rng(20)
    for _ in range(200):
        params = random_params(rng)
        fined = FineScenario(f_u=0.5, f_s=0.5).apply(params)
        base, with_fines = build_payoff_matrix(params), build_payoff_matrix(fined)
        for pair in STRATEGY_PAIRS:
            assert with_fines[pair][0] == base[pair][0]
            assert with_fines[pair][1] <= base[pair][1]


def test_fitness_profile_matches_matrix_mixing():
    rng = np.random.default_rng(21)
    for _ in range(300):
        params = random_params(rng, with_fines=True)
        state = PopulationState(rng.uniform(), rng.uniform())
        prof = fitness_profile(params, state)
        matrix = build_payoff_matrix(params)
        (nd0, na0), (nd1, at0) = matrix["NoDefence,NoAttack"], matrix["NoDefence,Attack"]
        (d0, na1), (d1, at1) = matrix["Defence,NoAttack"], matrix["Defence,Attack"]
        alpha, beta = state.alpha, state.beta
        nd = (1 - alpha) * nd0 + alpha * nd1
        d = (1 - alpha) * d0 + alpha * d1
        na = (1 - beta) * na0 + beta * na1
        at = (1 - beta) * at0 + beta * at1
        assert prof.f_no_defence == pytest.approx(nd, abs=1e-12)
        assert prof.f_defence == pytest.approx(d, abs=1e-12)
        assert prof.f_no_attack == 0.0
        assert prof.f_attack == pytest.approx(at, abs=1e-12)
        assert prof.mean_defender == pytest.approx(
            beta * prof.f_defence + (1 - beta) * prof.f_no_defence, abs=1e-12
        )
        assert prof.mean_attacker == pytest.approx(
            alpha * prof.f_attack + (1 - alpha) * prof.f_no_attack, abs=1e-12
        )
        assert prof.f_no_attack == pytest.approx(na, abs=1e-12)


def test_social_welfare_reference_quartet():
    params = GameParams(**REF)
    values = [social_welfare(params, pair) for pair in STRATEGY_PAIRS]
    assert values[0] == pytest.approx(0.0, abs=1e-9)
    assert values[1] == pytest.approx(-0.59, abs=1e-9)
    assert values[2] == pytest.approx(0.59, abs=1e-9)
    assert values[3] == pytest.approx(-0.5638, abs=1e-9)
    assert round(values[3], 2) == -0.56


def test_social_welfare_is_payoff_sum():
    rng = np.random.default_rng(22)
    for _ in range(200):
        params = random_params(rng, with_fines=True)
        matrix = build_payoff_matrix(params)
        for pair in STRATEGY_PAIRS:
            payoff_sum = sum(matrix[pair])
            assert social_welfare(params, pair) == pytest.approx(payoff_sum, abs=1e-15)


def test_strategy_pair_labels_and_order():
    assert list(STRATEGY_PAIRS) == [
        "NoDefence,NoAttack",
        "NoDefence,Attack",
        "Defence,NoAttack",
        "Defence,Attack",
    ]
