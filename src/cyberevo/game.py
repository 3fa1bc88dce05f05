"""Parameter model and payoff structure of the attack-defence game.

Two populations interact: defenders choose between NoDefence and Defence,
attackers between NoAttack and Attack.  A game is described by ten
parameters:

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
m       probability of catching the attacker on an unsecured    0 <= m <= 1
        system
n       probability of catching the attacker on a secured       0 <= n <= 1
        system
p       penalty for a successful attack                         p >= 0
s       penalty for an unsuccessful attack                      s >= 0
======  ======================================================  ============

Payoffs depend on (m, p, n, s) only through the two products m*p and n*s,
the expected fines for successful and unsuccessful attacks.  The default
construction sets all four to zero (no fines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import TYPE_CHECKING

from .errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import PopulationState

__all__ = [
    "DefenderMove",
    "AttackerMove",
    "StrategyPair",
    "STRATEGY_PAIRS",
    "GameParams",
    "FineScenario",
    "ZERO_FINES",
    "PayoffMatrix",
    "FitnessProfile",
    "build_payoff_matrix",
    "field_coefficients",
    "fitness_profile",
    "social_welfare",
]


class DefenderMove(IntEnum):
    """Pure strategy of the defender population."""

    NO_DEFENCE = 0
    DEFENCE = 1


class AttackerMove(IntEnum):
    """Pure strategy of the attacker population."""

    NO_ATTACK = 0
    ATTACK = 1


@dataclass(frozen=True)
class StrategyPair:
    """One of the four pure outcome pairs of the bimatrix game."""

    defender_move: DefenderMove
    attacker_move: AttackerMove

    def label(self) -> str:
        """Human-readable name, e.g. ``"Defence,NoAttack"``."""
        d = "Defence" if self.defender_move is DefenderMove.DEFENCE else "NoDefence"
        a = "Attack" if self.attacker_move is AttackerMove.ATTACK else "NoAttack"
        return f"{d},{a}"


#: The four pure strategy pairs in payoff-table order.
STRATEGY_PAIRS: tuple[StrategyPair, ...] = (
    StrategyPair(DefenderMove.NO_DEFENCE, AttackerMove.NO_ATTACK),
    StrategyPair(DefenderMove.NO_DEFENCE, AttackerMove.ATTACK),
    StrategyPair(DefenderMove.DEFENCE, AttackerMove.NO_ATTACK),
    StrategyPair(DefenderMove.DEFENCE, AttackerMove.ATTACK),
)


def _require(condition: bool, constraint: str, **values: float) -> None:
    if not condition:
        shown = ", ".join(f"{k}={v!r}" for k, v in values.items())
        raise ParameterError(f"constraint violated: {constraint} ({shown})")


@dataclass(frozen=True)
class GameParams:
    """Validated parameter set of one attack-defence game.

    Construction rejects any constraint violation; nothing is clamped
    silently.  Instances are immutable and safe to share across workers.
    """

    w: float
    c_a: float
    c_d: float
    b_a: float
    b_d: float
    v: float
    m: float = 0.0
    n: float = 0.0
    p: float = 0.0
    s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("w", "c_a", "c_d", "b_a", "b_d", "v", "m", "n", "p", "s"):
            value = getattr(self, name)
            _require(math.isfinite(value), f"{name} finite", **{name: value})
        _require(0.0 < self.w <= 1.0, "0 < w <= 1", w=self.w)
        _require(0.0 < self.c_a < self.w, "0 < c_a < w", c_a=self.c_a, w=self.w)
        _require(0.0 < self.c_d < self.w, "0 < c_d < w", c_d=self.c_d, w=self.w)
        _require(self.c_a < self.b_a, "c_a < b_a", c_a=self.c_a, b_a=self.b_a)
        _require(
            self.c_d < self.b_d <= self.w,
            "c_d < b_d <= w",
            c_d=self.c_d,
            b_d=self.b_d,
            w=self.w,
        )
        _require(0.0 < self.v <= 1.0, "0 < v <= 1", v=self.v)
        _require(0.0 <= self.m <= 1.0, "0 <= m <= 1", m=self.m)
        _require(0.0 <= self.n <= 1.0, "0 <= n <= 1", n=self.n)
        _require(self.p >= 0.0, "p >= 0", p=self.p)
        _require(self.s >= 0.0, "s >= 0", s=self.s)

    @property
    def fine_successful(self) -> float:
        """Expected fine m*p levied on a successful attack."""
        return self.m * self.p

    @property
    def fine_unsuccessful(self) -> float:
        """Expected fine n*s levied on an unsuccessful attack."""
        return self.n * self.s


@dataclass(frozen=True)
class FineScenario:
    """Composite attacker fines: f_u for unsuccessful, f_s for successful attacks.

    Payoffs depend on (m, p, n, s) only through the products m*p and n*s, so
    a scenario is applied by setting m = 1, p = f_s, n = 1, s = f_u.
    """

    f_u: float = 0.0
    f_s: float = 0.0

    def __post_init__(self) -> None:
        _require(self.f_u >= 0.0, "f_u >= 0", f_u=self.f_u)
        _require(self.f_s >= 0.0, "f_s >= 0", f_s=self.f_s)

    def apply(self, params: GameParams) -> GameParams:
        """Return a copy of ``params`` with this scenario's fines installed."""
        return replace(params, m=1.0, p=self.f_s, n=1.0, s=self.f_u)


#: The no-fines default scenario.
ZERO_FINES = FineScenario(0.0, 0.0)


@dataclass(frozen=True)
class PayoffMatrix:
    """Defender and attacker payoffs for the four pure strategy pairs.

    ``entries`` maps each :class:`StrategyPair` to a
    ``(defender_payoff, attacker_payoff)`` tuple.
    """

    entries: dict[StrategyPair, tuple[float, float]]

    def defender(self, pair: StrategyPair) -> float:
        return self.entries[pair][0]

    def attacker(self, pair: StrategyPair) -> float:
        return self.entries[pair][1]

    def __getitem__(self, pair: StrategyPair) -> tuple[float, float]:
        return self.entries[pair]


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


def build_payoff_matrix(params: GameParams) -> PayoffMatrix:
    """Construct the bimatrix payoffs for one game.

    Parameters
    ----------
    params : GameParams
        Validated game parameters.

    Returns
    -------
    PayoffMatrix
        For (NoDefence, NoAttack) both payoffs are zero.  An undefended
        attack costs the defender the asset value w and nets the attacker
        b_a - c_a minus the successful-attack fine m*p.  A defended system
        yields b_d - c_d against no attack; against an attack the defence
        succeeds with probability v, mixing the defended and undefended
        outcomes and the two fines accordingly.
    """
    w, c_a, c_d, b_a, b_d, v = (
        params.w,
        params.c_a,
        params.c_d,
        params.b_a,
        params.b_d,
        params.v,
    )
    fine_s = params.fine_successful
    fine_u = params.fine_unsuccessful
    entries = {
        STRATEGY_PAIRS[0]: (0.0, 0.0),
        STRATEGY_PAIRS[1]: (-w, -c_a + b_a - fine_s),
        STRATEGY_PAIRS[2]: (-c_d + b_d, 0.0),
        STRATEGY_PAIRS[3]: (
            -c_d + v * b_d - w * (1.0 - v),
            -c_a + b_a * (1.0 - v) - v * fine_u - (1.0 - v) * fine_s,
        ),
    }
    return PayoffMatrix(entries)


def field_coefficients(params: GameParams) -> tuple[float, float, float, float]:
    """Return (k0, k1, g0, g1): the payoff advantages as linear functions.

    ``k0 + k1 * alpha`` is the defender's payoff advantage of Defence over
    NoDefence against attack frequency alpha; ``g0 + g1 * beta`` is the
    attacker's advantage of Attack over NoAttack against defence frequency
    beta.  They are the brackets of the replicator field and the only place
    this algebra is written.
    """
    fine_s = params.fine_successful
    fine_u = params.fine_unsuccessful
    k0 = params.b_d - params.c_d
    k1 = params.v * params.b_d - params.b_d + params.v * params.w
    g0 = params.b_a - params.c_a - fine_s
    g1 = params.v * (fine_s - params.b_a - fine_u)
    return k0, k1, g0, g1


def fitness_profile(params: GameParams, state: "PopulationState") -> FitnessProfile:
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


def social_welfare(params: GameParams, pair: StrategyPair) -> float:
    """Sum of defender and attacker payoffs at a pure strategy pair."""
    defender_payoff, attacker_payoff = build_payoff_matrix(params)[pair]
    return defender_payoff + attacker_payoff
