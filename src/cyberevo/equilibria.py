"""Equilibrium enumeration and stability classification.

The replicator field has four corner fixed points for every game,

    E1 = (0,0)   E2 = (0,1)   E3 = (1,0)   E4 = (1,1)

in the E(beta, alpha) coordinate convention, plus an interior point E5 when
both field brackets have a root strictly inside (0, 1).  Corner Jacobians
are diagonal, with eigenvalues (D0, A0) at E1, (D1, -A0) at E2, (-D0, A1) at
E3 and (-D1, -A1) at E4, for the edge brackets D0 = k0, D1 = k0 + k1,
A0 = g0 and A1 = g0 + g1: both negative is Stable, both positive Unstable,
opposite Saddle.  A sign counts only where the bracket exceeds its float64
rounding-error bound; otherwise the corner is NonHyperbolic, "sign
undecidable in float64", at any payoff scale.  E5 exists only where both
slopes k1, g1 are negative, so det < 0 and it is a Saddle by theorem
(Hofbauer & Sigmund 1998, ch. 10), or NonHyperbolic if a slope's sign is
undecided.  The reports carry eigenvalues as output; :func:`_verdicts` is
the one verdict, for one game's floats and a table's columns alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .dynamics import PopulationState
from .game import GameParams, bracket_term_sums, brackets, field_coefficients

__all__ = [
    "EquilibriumKind",
    "Jacobian2",
    "EigenPair",
    "Classification",
    "EquilibriumReport",
    "jacobian",
    "eigenvalues",
    "interior_equilibrium",
    "analyze_equilibria",
    "stable_kinds",
    "stable_set",
    "stable_table",
    "INTERIOR_MARGIN",
    "DENOMINATOR_FLOOR",
]

#: A bracket's sign is decided where its magnitude exceeds _SIGN_GAMMA times
#: its term sum (:func:`~cyberevo.game.bracket_term_sums`) plus _SIGN_FLOOR.
#: With fl(a op b) = (a op b)(1 + d), |d| <= u = 2**-53, no term of D0, D1,
#: A0, A1, k1 or g1 meets more than four roundings (v*b_d in D1: the product,
#: both sums of k1, k0 + k1), so a bracket errs by at most 4u/(1 - 4u) times
#: its term sum (Higham, *Accuracy and Stability of Numerical Algorithms*,
#: 2002, Lemma 3.1); the computed sum, its terms rounded as often, is at least
#: (1 - 4u) times the exact one.  16u is a power of two and leaves a factor
#: of four for the bound's own rounding.  An underflowing product errs by up
#: to 2**-1075 absolutely; a bracket and its bound hold at most five, which
#: 2**-1022 covers.  An overflowing bracket has an infinite term sum.
_SIGN_GAMMA = 16.0 * 2.0**-53
_SIGN_FLOOR = 2.0**-1022

#: Interior coordinates must clear the open interval by this margin.
INTERIOR_MARGIN = 1e-9

#: Bracket slopes smaller than this give no interior root.
DENOMINATOR_FLOOR = 1e-12


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


def eigenvalues(j: Jacobian2) -> EigenPair:
    """Eigenvalues of a 2x2 matrix from the characteristic polynomial.

    Triangular matrices (either off-diagonal entry zero) return the diagonal
    entries exactly.  Otherwise the cancellation-free discriminant
    (j11 - j22)^2 + 4 j12 j21 is formed on the entries divided by a power of
    two near the largest (exact unless an entry underflows), so it cannot
    overflow; a negative value gives a complex-conjugate pair.  Ordering is
    descending real part, then descending imaginary part.
    """
    if j.j12 == 0.0 or j.j21 == 0.0:
        lam1, lam2 = complex(j.j11), complex(j.j22)
    else:
        _, e = math.frexp(max(abs(j.j11), abs(j.j12), abs(j.j21), abs(j.j22)))
        j11, j12, j21, j22 = (math.ldexp(x, -e) for x in (j.j11, j.j12, j.j21, j.j22))
        tr = j11 + j22
        disc = (j11 - j22) ** 2 + 4.0 * j12 * j21
        if disc >= 0.0:
            root = math.sqrt(disc)
            lam1 = complex(math.ldexp(0.5 * (tr + root), e))
            lam2 = complex(math.ldexp(0.5 * (tr - root), e))
        else:
            half_im = math.ldexp(0.5 * math.sqrt(-disc), e)
            lam1 = complex(math.ldexp(0.5 * tr, e), half_im)
            lam2 = lam1.conjugate()
    if (lam1.real, lam1.imag) < (lam2.real, lam2.imag):
        lam1, lam2 = lam2, lam1
    return EigenPair(lam1, lam2)


def _interior_point(k0, k1, g0, g1):
    """(beta*, alpha*, present): the interior fixed point of brackets (k0, k1, g0, g1).

    The field brackets vanish at beta* = -g0/g1 and alpha* = -k0/k1.  The
    point is present when both slopes exceed :data:`DENOMINATOR_FLOOR` in
    magnitude and both coordinates lie strictly inside (m, 1 - m) for
    m = :data:`INTERIOR_MARGIN`.  Takes one game's floats or a table's
    columns alike; this is the only place the interior rule is written.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        beta = np.divide(-g0, g1)
        alpha = np.divide(-k0, k1)
    present = (
        (np.abs(g1) > DENOMINATOR_FLOOR) & (np.abs(k1) > DENOMINATOR_FLOOR)
        & (INTERIOR_MARGIN < beta) & (beta < 1.0 - INTERIOR_MARGIN)
        & (INTERIOR_MARGIN < alpha) & (alpha < 1.0 - INTERIOR_MARGIN)
    )
    return beta, alpha, present


def interior_equilibrium(params: GameParams) -> Optional[PopulationState]:
    """Interior fixed point (beta*, alpha*) when it exists; absence is a value."""
    beta, alpha, present = _interior_point(*field_coefficients(params))
    return PopulationState(float(beta), float(alpha)) if present else None


#: The class of a fixed point whose eigenvalue signs are (a, b), each -1, 0
#: (undecided) or +1: index (a + b + 4) / 2, or 0 where a or b is 0.
_CLASSES = (Classification.NON_HYPERBOLIC, Classification.STABLE,
            Classification.SADDLE, Classification.UNSTABLE)


def _certified_sign(x, term_sum):
    """+1.0 or -1.0 where the sign of ``x`` is decided (:data:`_SIGN_GAMMA`), else 0.0."""
    bound = _SIGN_GAMMA * term_sum + _SIGN_FLOOR
    return (x > bound) * 1.0 - (x < -bound)


def _verdicts(game):
    """The classes of E1..E5 as indices into :data:`_CLASSES`, floats or columns.

    ``game`` is the eight values of :meth:`GameParams.as_tuple`.  E5's signs
    are (+1, -1) where both slopes are certainly negative, else (0, 0).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        k0, k1, g0, g1 = brackets(*game)
        t0, t1, s0, s1 = bracket_term_sums(*game)
        d0, d1, a0, a1, slope_d, slope_a = (
            _certified_sign(x, term_sum)
            for x, term_sum in ((k0, t0), (k0 + k1, t0 + t1), (g0, s0),
                                (g0 + g1, s0 + s1), (k1, t1), (g1, s1))
        )
    saddle = ((slope_d < 0.0) & (slope_a < 0.0)) * 1.0
    pairs = ((d0, a0), (d1, -a0), (-d0, a1), (-d1, -a1), (saddle, -saddle))
    return [(a * b != 0.0) * (a + b + 4.0) / 2.0 for a, b in pairs]


def analyze_equilibria(params: GameParams) -> tuple[EquilibriumReport, ...]:
    """Reports for the four corners plus the interior point when present.

    Returns exactly four or five reports, in kind order E1..E5.
    """
    beta, alpha, present = _interior_point(*field_coefficients(params))
    points = {**_CORNERS, EquilibriumKind.E5: (beta, alpha)} if present else _CORNERS
    reports = []
    for (kind, (bx, ax)), verdict in zip(points.items(), _verdicts(params.as_tuple())):
        state = PopulationState(float(bx), float(ax))
        jac = jacobian(params, state)
        classification = _CLASSES[int(verdict)]
        reports.append(EquilibriumReport(kind, state, jac, eigenvalues(jac), classification))
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
    stable = np.stack(_verdicts(game), axis=1) == _CLASSES.index(Classification.STABLE)
    _, _, interior = _interior_point(*brackets(*game))
    return stable, interior
