"""Equilibrium enumeration and eigenvalue stability classification.

The replicator field has four corner fixed points for every game,

    E1 = (0,0)   E2 = (0,1)   E3 = (1,0)   E4 = (1,1)

in the E(beta, alpha) coordinate convention, plus an interior point E5 when
both field brackets have a root strictly inside (0, 1).  Stability is read
off the Jacobian's eigenvalues: strictly negative real parts mean Stable,
strictly positive mean Unstable, opposite signs mean Saddle, and any real
part within the hyperbolicity tolerance of zero is surfaced as
NonHyperbolic rather than guessed.  At the interior point the Jacobian has
zero trace, so E5 is never asymptotically stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .dynamics import PopulationState
from .game import GameParams, field_coefficients

__all__ = [
    "EquilibriumKind",
    "Jacobian2",
    "EigenPair",
    "Classification",
    "EquilibriumReport",
    "jacobian",
    "jacobian_entries",
    "eigenvalues",
    "classify",
    "interior_equilibrium",
    "analyze_equilibria",
    "stable_set",
    "HYPERBOLICITY_EPSILON",
    "INTERIOR_MARGIN",
    "DENOMINATOR_FLOOR",
]

#: |Re(lambda)| at or below this is treated as zero (NonHyperbolic).
HYPERBOLICITY_EPSILON = 1e-9

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


def jacobian_entries(k0, k1, g0, g1, beta, alpha):
    """(j11, j12, j21, j22) of the replicator field's Jacobian at (beta, alpha).

    With brackets k0 + k1*alpha and g0 + g1*beta (see
    :func:`cyberevo.game.brackets`):

        j11 = (1 - 2 beta)(k0 + k1 alpha)    j12 = beta(1 - beta) k1
        j21 = alpha(1 - alpha) g1            j22 = (1 - 2 alpha)(g0 + g1 beta)

    At every corner the off-diagonal entries are exactly zero because the
    logistic prefactors vanish, so corner eigenvalues are the diagonal.
    Takes one game's floats or a table's columns alike; this is the only
    place the entries are written.
    """
    return (
        (1.0 - 2.0 * beta) * (k0 + k1 * alpha),
        beta * (1.0 - beta) * k1,
        alpha * (1.0 - alpha) * g1,
        (1.0 - 2.0 * alpha) * (g0 + g1 * beta),
    )


def jacobian(params: GameParams, state: PopulationState) -> Jacobian2:
    """Closed-form Jacobian of the field at a state (:func:`jacobian_entries`)."""
    return Jacobian2(
        *jacobian_entries(*field_coefficients(params), state.beta, state.alpha)
    )


def eigenvalues(j: Jacobian2) -> EigenPair:
    """Eigenvalues of a 2x2 matrix from the characteristic polynomial.

    Triangular matrices (either off-diagonal entry zero) return the diagonal
    entries exactly.  Otherwise the discriminant is evaluated in the
    cancellation-free form (j11 - j22)^2 + 4 j12 j21; a negative value gives
    a complex-conjugate pair.  Ordering is descending real part, then
    descending imaginary part.
    """
    if j.j12 == 0.0 or j.j21 == 0.0:
        lam1, lam2 = complex(j.j11), complex(j.j22)
    else:
        tr = j.j11 + j.j22
        disc = (j.j11 - j.j22) ** 2 + 4.0 * j.j12 * j.j21
        if disc >= 0.0:
            root = math.sqrt(disc)
            lam1 = complex(0.5 * (tr + root))
            lam2 = complex(0.5 * (tr - root))
        else:
            half_im = 0.5 * math.sqrt(-disc)
            lam1 = complex(0.5 * tr, half_im)
            lam2 = complex(0.5 * tr, -half_im)
    if (lam1.real, lam1.imag) < (lam2.real, lam2.imag):
        lam1, lam2 = lam2, lam1
    return EigenPair(lam1, lam2)


def classify(eigen: EigenPair) -> Classification:
    """Map eigenvalue real parts to a stability class.

    Any real part within :data:`HYPERBOLICITY_EPSILON` of zero yields
    NonHyperbolic: the stability criterion is a strict sign condition and
    measure-zero boundary cases must be surfaced, not decided.
    """
    re1 = eigen.lambda1.real
    re2 = eigen.lambda2.real
    if abs(re1) <= HYPERBOLICITY_EPSILON or abs(re2) <= HYPERBOLICITY_EPSILON:
        return Classification.NON_HYPERBOLIC
    if re1 < 0.0 and re2 < 0.0:
        return Classification.STABLE
    if re1 > 0.0 and re2 > 0.0:
        return Classification.UNSTABLE
    return Classification.SADDLE


def interior_equilibrium(params: GameParams) -> Optional[PopulationState]:
    """Interior fixed point (beta*, alpha*) when it exists.

    The field brackets vanish at beta* = -g0/g1 and alpha* = -k0/k1.  The
    point exists when both slopes exceed :data:`DENOMINATOR_FLOOR` in
    magnitude and both coordinates lie strictly inside (m, 1 - m) for
    m = :data:`INTERIOR_MARGIN`; absence is a value, not an error.
    """
    k0, k1, g0, g1 = field_coefficients(params)
    if abs(g1) <= DENOMINATOR_FLOOR or abs(k1) <= DENOMINATOR_FLOOR:
        return None
    beta_star = -g0 / g1
    alpha_star = -k0 / k1
    if not (INTERIOR_MARGIN < beta_star < 1.0 - INTERIOR_MARGIN):
        return None
    if not (INTERIOR_MARGIN < alpha_star < 1.0 - INTERIOR_MARGIN):
        return None
    return PopulationState(beta_star, alpha_star)


def _report(
    params: GameParams, kind: EquilibriumKind, state: PopulationState
) -> EquilibriumReport:
    jac = jacobian(params, state)
    eig = eigenvalues(jac)
    return EquilibriumReport(kind, state, jac, eig, classify(eig))


def analyze_equilibria(params: GameParams) -> tuple[EquilibriumReport, ...]:
    """Reports for the four corners plus the interior point when present.

    Returns exactly four or five reports, in kind order E1..E5.
    """
    reports = [
        _report(params, kind, PopulationState(float(bx), float(ax)))
        for kind, (bx, ax) in _CORNERS.items()
    ]
    interior = interior_equilibrium(params)
    if interior is not None:
        reports.append(_report(params, EquilibriumKind.E5, interior))
    return tuple(reports)


def stable_set(params: GameParams) -> frozenset[EquilibriumKind]:
    """Kinds whose report classification is Stable."""
    return frozenset(
        r.kind
        for r in analyze_equilibria(params)
        if r.classification is Classification.STABLE
    )
