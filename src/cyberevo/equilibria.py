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
undecidable in float64", at any payoff scale.  The same four signs place
E5: alpha* = -k0/k1 lies in (0, 1) exactly when D0 and D1 differ in sign,
beta* = -g0/g1 exactly when A0 and A1 do, and E5 is present where both
pairs certainly differ.  Since k0 = b_d - c_d > 0 and v <= 1, presence
forces k1 < 0 and g1 < 0, so det < 0 and E5 is a Saddle by theorem
(Hofbauer & Sigmund 1998, ch. 10).  The reports carry eigenvalues as
output; :func:`_verdicts` is the one rule, for one game's floats and a
table's columns alike.
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
]

#: A bracket's sign is decided where its magnitude exceeds _SIGN_GAMMA times
#: its term sum (:func:`~cyberevo.game.bracket_term_sums`) plus _SIGN_FLOOR.
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
    (j11 - j22)^2 + 4 j12 j21 is formed divided by 4**e, with 2**e a power
    of two near the largest of |j11|, |j22| and sqrt|j12 j21|, so it cannot
    overflow; a negative value gives a complex-conjugate pair.  j12 j21 is
    the product of the entries' frexp mantissas, its exponent carried
    apart, as in :func:`_interior_rate`, so it underflows only where
    sqrt|j12 j21| is below 2**-537 times a diagonal entry.  Ordering is
    descending real part, then descending imaginary part.
    """
    if j.j12 == 0.0 or j.j21 == 0.0:
        lam1, lam2 = complex(j.j11), complex(j.j22)
    else:
        (m12, e12), (m21, e21) = math.frexp(j.j12), math.frexp(j.j21)
        m, e_product = math.frexp(m12 * m21)
        e_product += e12 + e21  # j12 j21 = m * 2**e_product
        e = max(math.frexp(j.j11)[1], math.frexp(j.j22)[1], (e_product + 1) // 2)
        j11, j22 = math.ldexp(j.j11, -e), math.ldexp(j.j22, -e)
        tr = j11 + j22
        disc = (j11 - j22) ** 2 + 4.0 * math.ldexp(m, e_product - 2 * e)
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


#: The class of a fixed point whose eigenvalue signs are (a, b), each -1, 0
#: (undecided) or +1: index (a + b + 4) / 2, or 0 where a or b is 0.
_CLASSES = (Classification.NON_HYPERBOLIC, Classification.STABLE,
            Classification.SADDLE, Classification.UNSTABLE)


def _certified_sign(x, term_sum):
    """+1.0 or -1.0 where the sign of ``x`` is decided (:data:`_SIGN_GAMMA`), else 0.0."""
    bound = _SIGN_GAMMA * term_sum + _SIGN_FLOOR
    return (x > bound) * 1.0 - (x < -bound)


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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k0, k1, g0, g1 = brackets(*game)
        t0, t1, s0, s1 = bracket_term_sums(*game)
        d0, d1, a0, a1 = (
            _certified_sign(x, term_sum)
            for x, term_sum in ((k0, t0), (k0 + k1, t0 + t1), (g0, s0), (g0 + g1, s0 + s1))
        )
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
    them above 12u (:data:`_SIGN_GAMMA`).  Each
    step is that of :func:`jacobian` and :func:`eigenvalues` scaled by a
    power of two, so where no root or entry underflows the bits are theirs.
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
            eigen = eigenvalues(jac)
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
