"""Parameter model and payoff structure of the attack-defence game.

Two populations interact: defenders choose between NoDefence and Defence,
attackers between NoAttack and Attack.  Each of the four pure strategy
pairs is named by its label, such as ``"Defence,NoAttack"``
(:data:`STRATEGY_PAIRS`).  A game is described by eight parameters:

======  ======================================================  ============
symbol  meaning                                                 constraint
======  ======================================================  ============
w       value of the asset under attack (normalized utility)    0 < w <= 1
c_a     cost of mounting an attack                              0 < c_a < w
c_d     cost of operating a defence                             0 < c_d < w
b_a     attacker's benefit from a successful attack             c_a < b_a
b_d     defender's benefit from running a defended system       c_d < b_d <= w
v       probability that an implemented defence defeats an      0 < v <= 1
        attack (defence intensity)
f_s     ``fine_successful``: expected fine m*p on a successful  f_s >= 0
        attack
f_u     ``fine_unsuccessful``: expected fine n*s on an          f_u >= 0
        unsuccessful attack
======  ======================================================  ============

The paper's fines (m, n the chances of catching the attacker on an
unsecured and a secured system, p, s the penalties for a successful and an
unsuccessful attack) enter the payoffs only through m*p and n*s, so a game
holds the two products and "no fines" is the default 0.0.  Every
parameter must be a finite real number and not a bool
(:func:`~cyberevo.errors.is_real`).  A state of the two populations is a
:class:`PopulationState`, the frequencies (beta, alpha) of Defence and
Attack, which the fitness, the dynamics, the equilibria and the
finite-population check all read.  The constraints, payoff pairs, welfare
and brackets are each written once and take one game's floats or a
table's columns alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import is_real, require

__all__ = [
    "STRATEGY_PAIRS",
    "PARAMETERS",
    "GameParams",
    "FineScenario",
    "PopulationState",
    "ZERO_FINES",
    "FitnessProfile",
    "build_payoff_matrix",
    "constraints",
    "payoff_pairs",
    "welfare_pairs",
    "brackets",
    "bracket_term_sums",
    "corner_signs",
    "field_coefficients",
    "fitness_profile",
    "social_welfare",
]


#: The four pure strategy pairs, "<defender move>,<attacker move>", in
#: payoff-table order.
STRATEGY_PAIRS: tuple[str, ...] = (
    "NoDefence,NoAttack",
    "NoDefence,Attack",
    "Defence,NoAttack",
    "Defence,Attack",
)


#: The six parameters a game is drawn from, in :class:`GameParams` field order.
PARAMETERS: tuple[str, ...] = ("w", "c_a", "c_d", "b_a", "b_d", "v")

#: All fields of :class:`GameParams`, in order.
_FIELDS = PARAMETERS + ("fine_successful", "fine_unsuccessful")


def constraints(w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful):
    """Each constraint on a game's parameters, as ``(constraint, holds)``.

    Takes one game's floats or a table's columns alike; ``holds`` is a bool
    or a boolean array.  Finiteness comes first, so a NaN or an infinity is
    named as such.
    """
    values = (w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful)
    return (
        *((f"{name} finite", np.isfinite(x)) for name, x in zip(_FIELDS, values)),
        ("0 < w <= 1", (0.0 < w) & (w <= 1.0)),
        ("0 < c_a < w", (0.0 < c_a) & (c_a < w)),
        ("0 < c_d < w", (0.0 < c_d) & (c_d < w)),
        ("c_a < b_a", c_a < b_a),
        ("c_d < b_d <= w", (c_d < b_d) & (b_d <= w)),
        ("0 < v <= 1", (0.0 < v) & (v <= 1.0)),
        ("fine_successful >= 0", fine_successful >= 0.0),
        ("fine_unsuccessful >= 0", fine_unsuccessful >= 0.0),
    )


@dataclass(frozen=True)
class GameParams:
    """Validated parameter set of one attack-defence game.

    Construction rejects a field that is not a finite real number (a bool,
    a string, an int beyond float range), then any violation of
    :func:`constraints`; nothing is clamped silently.  Instances are
    immutable.
    """

    w: float
    c_a: float
    c_d: float
    b_a: float
    b_d: float
    v: float
    fine_successful: float = 0.0
    fine_unsuccessful: float = 0.0

    def __post_init__(self) -> None:
        for name, value in zip(_FIELDS, self.as_tuple()):
            require(is_real(value), f"{name} finite real", **{name: value})
        for constraint, holds in constraints(*self.as_tuple()):
            require(holds, constraint, **{
                name: getattr(self, name)
                for name in constraint.split() if name in _FIELDS
            })

    def as_tuple(self) -> tuple[float, ...]:
        """The eight fields in order, as the algebra functions take them."""
        return (
            self.w, self.c_a, self.c_d, self.b_a, self.b_d, self.v,
            self.fine_successful, self.fine_unsuccessful,
        )


@dataclass(frozen=True)
class FineScenario:
    """Composite attacker fines: f_u for unsuccessful, f_s for successful attacks.

    Applied to a game, ``f_s`` becomes its ``fine_successful`` and ``f_u``
    its ``fine_unsuccessful``.  Each is a finite real number >= 0, not a
    bool.  A zero fine is stored as 0.0, so -0.0 is not a second "no
    fines"; every other value is kept as given.
    """

    f_u: float = 0.0
    f_s: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (("f_u", self.f_u), ("f_s", self.f_s)):
            require(is_real(value), f"{name} finite real", **{name: value})
            require(value >= 0.0, f"{name} >= 0", **{name: value})
            if value == 0.0:
                object.__setattr__(self, name, 0.0)

    def apply(self, params: GameParams) -> GameParams:
        """Return a copy of ``params`` with this scenario's fines installed."""
        return replace(params, fine_successful=self.f_s, fine_unsuccessful=self.f_u)


#: The no-fines default scenario.
ZERO_FINES = FineScenario(0.0, 0.0)


@dataclass(frozen=True)
class PopulationState:
    """Frequencies (beta, alpha) of Defence and Attack, each a real number in [0, 1]."""

    beta: float
    alpha: float

    def __post_init__(self) -> None:
        require(is_real(self.beta) and 0.0 <= self.beta <= 1.0, "0 <= beta <= 1", beta=self.beta)
        require(is_real(self.alpha) and 0.0 <= self.alpha <= 1.0, "0 <= alpha <= 1",
                alpha=self.alpha)


@dataclass(frozen=True)
class FitnessProfile:
    """Expected payoffs of each pure strategy against the opposite mixture.

    Evaluated at a population state (beta, alpha): ``f_defence`` and
    ``f_no_defence`` are defender payoffs against attack frequency alpha;
    ``f_attack`` and ``f_no_attack`` are attacker payoffs against defence
    frequency beta; the means weight them by own-population frequencies.
    """

    f_no_defence: float
    f_defence: float
    f_no_attack: float
    f_attack: float
    mean_defender: float
    mean_attacker: float


def payoff_pairs(w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful):
    """(defender, attacker) payoffs of the pure pairs, in ``STRATEGY_PAIRS`` order.

    Takes one game's floats (:meth:`GameParams.as_tuple`) or a table's
    columns alike; this is the only place the payoffs are written.  For
    (NoDefence, NoAttack) both payoffs are zero.  An undefended attack costs
    the defender the asset value w and nets the attacker b_a - c_a minus the
    successful-attack fine.  A defended system yields b_d - c_d against no
    attack; against an attack the defence succeeds with probability v,
    mixing the defended and undefended outcomes and the two fines
    accordingly.
    """
    return (
        (0.0, 0.0),
        (-w, -c_a + b_a - fine_successful),
        (-c_d + b_d, 0.0),
        (
            -c_d + b_d * v - w * (1.0 - v),
            -c_a + b_a * (1.0 - v)
            - v * fine_unsuccessful - (1.0 - v) * fine_successful,
        ),
    )


def welfare_pairs(w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful):
    """Social welfare (defender plus attacker payoff) of the pure pairs.

    In ``STRATEGY_PAIRS`` order; takes one game's floats or a table's
    columns alike, as :func:`payoff_pairs` does.  This is the only place
    the two payoffs are added.
    """
    return tuple(
        d + a
        for d, a in payoff_pairs(w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful)
    )


def brackets(w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful):
    """Return (k0, k1, g0, g1): the payoff advantages as linear functions.

    ``k0 + k1 * alpha`` is the defender's payoff advantage of Defence over
    NoDefence against attack frequency alpha; ``g0 + g1 * beta`` is the
    attacker's advantage of Attack over NoAttack against defence frequency
    beta.  Takes one game's floats (:meth:`GameParams.as_tuple`) or a
    table's columns alike; this is the only place the brackets are written.
    """
    k0 = b_d - c_d
    k1 = v * b_d - b_d + v * w
    g0 = b_a - c_a - fine_successful
    g1 = v * (fine_successful - b_a - fine_unsuccessful)
    return k0, k1, g0, g1


def bracket_term_sums(w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful):
    """The sums of |term| over the terms :func:`brackets` adds into k0, k1, g0, g1.

    :func:`brackets` with each minus made a plus (no parameter is negative),
    in its grouping, so an overflowing bracket has an infinite sum; they
    scale the brackets' rounding-error bound in :func:`corner_signs`.
    """
    k0 = b_d + c_d
    k1 = v * b_d + b_d + v * w
    g0 = b_a + c_a + fine_successful
    g1 = v * (fine_successful + b_a + fine_unsuccessful)
    return k0, k1, g0, g1


#: A bracket's sign is decided where its magnitude exceeds _SIGN_GAMMA times
#: its term sum (:func:`bracket_term_sums`) plus _SIGN_FLOOR.
#: With fl(a op b) = (a op b)(1 + d), |d| <= u = 2**-53, no term of D0, D1,
#: A0 or A1 meets more than four roundings (v*b_d in D1: the product,
#: both sums of k1, k0 + k1), so a bracket errs by at most 4u/(1 - 4u) times
#: its term sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
#: 2002, Lemma 3.1); the computed sum, its terms rounded as often, is at least
#: (1 - 4u) times the exact one.  16u is a power of two and leaves a factor
#: of four for the bound's own rounding.  An underflowing product errs by up
#: to 2**-1075 absolutely; a bracket and its bound hold at most five, which
#: 2**-1022 covers.  An overflowing bracket has an infinite term sum.
_SIGN_GAMMA = 16.0 * 2.0**-53
_SIGN_FLOOR = 2.0**-1022


def _certified_sign(x, term_sum):
    """+1.0 or -1.0 where the sign of ``x`` is decided (:data:`_SIGN_GAMMA`), else 0.0."""
    bound = _SIGN_GAMMA * term_sum + _SIGN_FLOOR
    return (x > bound) * 1.0 - (x < -bound)


def corner_signs(w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful):
    """The certified signs of D0 = k0, D1 = k0 + k1, A0 = g0 and A1 = g0 + g1.

    These edge brackets are the diagonals of the corner Jacobians, so their
    signs decide every fixed point's class and every corner's trap.  Each
    is +1.0 or -1.0 where it exceeds its float64 rounding-error bound
    (:data:`_SIGN_GAMMA`), else 0.0: undecidable, never a trap.  Takes one
    game's floats (:meth:`GameParams.as_tuple`) or a table's columns alike;
    this is the only place a bracket's sign is decided.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k0, k1, g0, g1 = brackets(w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful)
        t0, t1, s0, s1 = bracket_term_sums(
            w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful)
        return tuple(
            _certified_sign(x, term_sum)
            for x, term_sum in ((k0, t0), (k0 + k1, t0 + t1), (g0, s0), (g0 + g1, s0 + s1))
        )


def build_payoff_matrix(params: GameParams) -> dict[str, tuple[float, float]]:
    """(defender, attacker) payoffs of one game by pair label (see :func:`payoff_pairs`)."""
    return dict(zip(STRATEGY_PAIRS, payoff_pairs(*params.as_tuple())))


def field_coefficients(params: GameParams) -> tuple[float, float, float, float]:
    """The field brackets (k0, k1, g0, g1) of one game (see :func:`brackets`)."""
    return brackets(*params.as_tuple())


def fitness_profile(params: GameParams, state: PopulationState) -> FitnessProfile:
    """Evaluate expected payoffs of all four pure strategies at a state.

    Parameters
    ----------
    params : GameParams
    state : PopulationState
        Frequencies (beta, alpha) of Defence and Attack; must lie in the
        closed unit square.

    Returns
    -------
    FitnessProfile
        Linear in the opposite population's frequency: the NoDefence payoff
        is -w * alpha, ``f_no_attack`` is identically zero, and the other
        two strategies lead them by the :func:`field_coefficients` brackets.
    """
    beta = state.beta
    alpha = state.alpha
    k0, k1, g0, g1 = field_coefficients(params)
    f_no_defence = -params.w * alpha
    f_defence = f_no_defence + k0 + k1 * alpha
    f_no_attack = 0.0
    f_attack = g0 + g1 * beta
    mean_defender = beta * f_defence + (1.0 - beta) * f_no_defence
    mean_attacker = alpha * f_attack + (1.0 - alpha) * f_no_attack
    return FitnessProfile(
        f_no_defence=f_no_defence,
        f_defence=f_defence,
        f_no_attack=f_no_attack,
        f_attack=f_attack,
        mean_defender=mean_defender,
        mean_attacker=mean_attacker,
    )


def social_welfare(params: GameParams, pair: str) -> float:
    """Welfare of one game at the pair labelled ``pair`` (see :func:`welfare_pairs`)."""
    return dict(zip(STRATEGY_PAIRS, welfare_pairs(*params.as_tuple())))[pair]
