"""Equilibrium enumeration and stability classification.

The replicator field has four corner fixed points for every game,

    E1 = (0,0)   E2 = (0,1)   E3 = (1,0)   E4 = (1,1)

in the E(beta, alpha) coordinate convention, plus an interior point E5 when
both field brackets have a root strictly inside (0, 1).  Corner Jacobians
are diagonal, with eigenvalues (D0, A0) at E1, (D1, -A0) at E2, (-D0, A1) at
E3 and (-D1, -A1) at E4, for the edge brackets D0 = k0, D1 = k0 + k1,
A0 = g0 and A1 = g0 + g1: both negative is Stable, both positive Unstable,
opposite Saddle.  A sign counts only where the bracket exceeds its float64
rounding-error bound (:func:`cyberevo.game.corner_signs`, which both
integrators read too); otherwise the corner is NonHyperbolic, "sign
undecidable in float64", at any payoff scale.  The same four signs place
E5: alpha* = -k0/k1 lies in (0, 1) exactly when D0 and D1 differ in sign,
beta* = -g0/g1 exactly when A0 and A1 do, and E5 is present where both
pairs certainly differ.  Since k0 = b_d - c_d > 0 and v <= 1, presence
forces k1 < 0 and g1 < 0, so det < 0 and E5 is a Saddle by theorem
(Hofbauer & Sigmund 1998, ch. 10).  The reports carry eigenvalues as
output only: a corner's are its Jacobian's diagonal, E5's +-sqrt(j12 j21).
:func:`_verdicts` reads the four signs for one game's floats and a table's
columns alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .game import GameParams, PopulationState, brackets, corner_signs, field_coefficients

__all__ = [
    "EquilibriumKind",
    "Jacobian2",
    "EigenPair",
    "Classification",
    "EquilibriumReport",
    "jacobian",
    "interior_equilibrium",
    "analyze_equilibria",
    "stable_kinds",
    "stable_set",
    "stable_table",
]


class EquilibriumKind(Enum):
    """The five named fixed points, E(beta, alpha) convention."""

    E1 = "E1"
    E2 = "E2"
    E3 = "E3"
    E4 = "E4"
    E5 = "E5"

    @property
    def corner(self) -> Optional[tuple[int, int]]:
        """(beta, alpha) for corner kinds, None for the interior kind."""
        return _CORNERS.get(self)


_CORNERS: dict[EquilibriumKind, tuple[int, int]] = {
    EquilibriumKind.E1: (0, 0),
    EquilibriumKind.E2: (0, 1),
    EquilibriumKind.E3: (1, 0),
    EquilibriumKind.E4: (1, 1),
}


class Classification(Enum):
    """Stability class of a fixed point."""

    STABLE = "Stable"
    UNSTABLE = "Unstable"
    SADDLE = "Saddle"
    NON_HYPERBOLIC = "NonHyperbolic"


@dataclass(frozen=True)
class Jacobian2:
    """2x2 Jacobian of the replicator field, rows (d_beta, d_alpha)."""

    j11: float
    j12: float
    j21: float
    j22: float

    @property
    def trace(self) -> float:
        return self.j11 + self.j22

    @property
    def det(self) -> float:
        return self.j11 * self.j22 - self.j12 * self.j21


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues ordered by descending real part, then descending imaginary."""

    lambda1: complex
    lambda2: complex


@dataclass(frozen=True)
class EquilibriumReport:
    """Location, Jacobian, eigenvalues, and stability class of one fixed point."""

    kind: EquilibriumKind
    location: PopulationState
    jacobian: Jacobian2
    eigen: EigenPair
    classification: Classification


def jacobian(params: GameParams, state: PopulationState) -> Jacobian2:
    """Closed-form Jacobian of the field at a state.

    With brackets k0 + k1*alpha and g0 + g1*beta (see
    :func:`cyberevo.game.brackets`):

        j11 = (1 - 2 beta)(k0 + k1 alpha)    j12 = beta(1 - beta) k1
        j21 = alpha(1 - alpha) g1            j22 = (1 - 2 alpha)(g0 + g1 beta)

    At every corner the off-diagonal entries are exactly zero because the
    logistic prefactors vanish, so corner eigenvalues are the diagonal.
    """
    k0, k1, g0, g1 = field_coefficients(params)
    beta, alpha = state.beta, state.alpha
    return Jacobian2(
        (1.0 - 2.0 * beta) * (k0 + k1 * alpha),
        beta * (1.0 - beta) * k1,
        alpha * (1.0 - alpha) * g1,
        (1.0 - 2.0 * alpha) * (g0 + g1 * beta),
    )


#: The class of a fixed point whose eigenvalue signs are (a, b), each -1, 0
#: (undecided) or +1: index (a + b + 4) / 2, or 0 where a or b is 0.
_CLASSES = (Classification.NON_HYPERBOLIC, Classification.STABLE,
            Classification.SADDLE, Classification.UNSTABLE)


def _verdicts(game):
    """The fixed points of ``game``, from the certified signs of D0, D1, A0 and A1.

    ``game`` is the eight values of :meth:`GameParams.as_tuple`, one game's
    floats or a table's columns.  Returns ``(classes, (beta, alpha),
    (beta_in, alpha_in))``: the classes of E1..E5 as indices into
    :data:`_CLASSES`; the bracket roots beta* = -g0/g1 and alpha* = -k0/k1;
    and where A0, A1 (D0, D1) certainly differ in sign, so that beta*
    (alpha*) lies in (0, 1).  E5 is present where both do, and is a Saddle.

    There the computed numerator is positive and below the computed
    denominator's magnitude (their sum is certainly of the denominator's
    sign), so the correctly rounded quotient lies in [0, 1).  It is 0 only
    by underflow, as when fines near 1e300 dwarf a benefit near 1e-300; the
    smallest positive float then stands in for the root.
    """
    d0, d1, a0, a1 = corner_signs(*game)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k0, k1, g0, g1 = brackets(*game)
        roots = tuple(np.maximum(np.divide(-x0, x1), 2.0**-1074)
                      for x0, x1 in ((g0, g1), (k0, k1)))
    beta_in, alpha_in = a0 * a1 < 0.0, d0 * d1 < 0.0
    interior = (beta_in & alpha_in) * 1.0
    pairs = ((d0, a0), (d1, -a0), (-d0, a1), (-d1, -a1), (interior, -interior))
    classes = [(a * b != 0.0) * (a + b + 4.0) / 2.0 for a, b in pairs]
    return classes, roots, (beta_in, alpha_in)


def interior_equilibrium(params: GameParams) -> Optional[PopulationState]:
    """Interior fixed point (beta*, alpha*) when it exists; absence is a value."""
    _, (beta, alpha), (beta_in, alpha_in) = _verdicts(params.as_tuple())
    return PopulationState(float(beta), float(alpha)) if beta_in and alpha_in else None


def _interior_rate(params: GameParams) -> float:
    """sqrt(j12 * j21) at E5, its positive eigenvalue, formed with no underflow.

    At E5, j12 * j21 = beta*(1 - beta*) k1 * alpha*(1 - alpha*) g1, which is
    D0 D1 A0 A1 / (k1 g1).  Each root is the quotient of its brackets' frexp
    mantissas, its exponent carried apart, so a root below the float64
    range still counts.  1 - beta* = A1/g1 and 1 - alpha* = D1/k1 need no
    scaling: where E5 is present, the certified signs of A1 and D1 keep
    them above 12u (:data:`cyberevo.game._SIGN_GAMMA`).  Each step is that
    of :func:`jacobian` scaled by a power of two, so where no root or entry
    underflows the result is sqrt(j12 * j21) of its entries, bit for bit.
    """
    k0, k1, g0, g1 = field_coefficients(params)
    product, exponent = 1.0, 0
    for x0, x1, other in ((g0, g1, k1), (k0, k1, g1)):
        (m0, e0), (m1, e1), (m2, e2) = map(math.frexp, (x0, x1, other))
        root = -m0 / m1  # the root is root * 2**(e0 - e1)
        product *= root * (1.0 - math.ldexp(root, e0 - e1)) * m2
        exponent += e0 - e1 + e2
    if exponent % 2:
        product, exponent = 2.0 * product, exponent - 1
    return math.ldexp(math.sqrt(product), exponent // 2)


def analyze_equilibria(params: GameParams) -> tuple[EquilibriumReport, ...]:
    """Reports for the four corners plus the interior point when present.

    Returns exactly four or five reports, in kind order E1..E5.  E5's
    Jacobian has its exact diagonal, zero, so its eigenvalues are
    +-sqrt(j12 * j21) (:func:`_interior_rate`) rather than rounding residue
    of the brackets, even where j12 or j21 underflows.
    """
    classes, interior, (beta_in, alpha_in) = _verdicts(params.as_tuple())
    points = {**_CORNERS, EquilibriumKind.E5: interior} if beta_in and alpha_in else _CORNERS
    reports = []
    for (kind, (bx, ax)), verdict in zip(points.items(), classes):
        state = PopulationState(float(bx), float(ax))
        jac = jacobian(params, state)
        if kind is EquilibriumKind.E5:
            jac = Jacobian2(0.0, jac.j12, jac.j21, 0.0)
            rate = _interior_rate(params)
            eigen = EigenPair(complex(rate), complex(-rate))
        else:
            eigen = EigenPair(*map(complex, sorted((jac.j11, jac.j22), reverse=True)))
        classification = _CLASSES[int(verdict)]
        reports.append(EquilibriumReport(kind, state, jac, eigen, classification))
    return tuple(reports)


def stable_kinds(reports: Sequence[EquilibriumReport]) -> tuple[EquilibriumKind, ...]:
    """Kinds whose report classification is Stable, in report order."""
    return tuple(r.kind for r in reports if r.classification is Classification.STABLE)


def stable_set(params: GameParams) -> frozenset[EquilibriumKind]:
    """Kinds whose report classification is Stable."""
    return frozenset(stable_kinds(analyze_equilibria(params)))


def stable_table(w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful):
    """``stable`` (n, 5) and ``interior`` (n,) of the games with these parameter columns.

    Row i holds the bits :func:`stable_set` (one column per kind E1..E5)
    and :func:`interior_equilibrium` give for game i.  The fines may be
    floats shared by every row.
    """
    game = (w, c_a, c_d, b_a, b_d, v, fine_successful, fine_unsuccessful)
    classes, _, (beta_in, alpha_in) = _verdicts(game)
    stable = np.stack(classes, axis=1) == _CLASSES.index(Classification.STABLE)
    return stable, beta_in & alpha_in
