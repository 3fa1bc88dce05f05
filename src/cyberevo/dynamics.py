"""Two-population replicator dynamics on the unit square.

The state is (beta, alpha): the frequency of Defence among defenders and of
Attack among attackers.  Each frequency grows in proportion to its payoff
advantage over its own population's mean, which reduces to

    d_beta/dt  = beta (1 - beta) (k0 + k1 alpha)
    d_alpha/dt = alpha (1 - alpha) (g0 + g1 beta)

with the brackets of :func:`cyberevo.game.brackets`, where f_s and f_u are
the game's expected fines m p and n s (``fine_successful``,
``fine_unsuccessful``):

    k0 = b_d - c_d                      g0 = b_a - c_a - f_s
    k1 = v b_d - b_d + v w              g1 = v (f_s - b_a - f_u)

Both functions below integrate it in log-odds x = logit(beta),
y = logit(alpha), with sigma the logistic function:

    dx/dt = k0 + k1 sigma(y)          dy/dt = g0 + g1 sigma(x)

This system is Hamiltonian and separable: H(x, y) = A(x) - B(y), with
A(x) = g0 x + g1 softplus(x) and B(y) = k0 y + k1 softplus(y), is constant
along every trajectory, the classical first integral of 2x2 bimatrix
replicator dynamics (Hofbauer & Sigmund, *Evolutionary Games and Population
Dynamics*, 1998, ch. 10).  An edge of the square is a coordinate at +-inf,
which no finite step moves, and 1 - beta = sigma(-x) keeps full relative
precision, so no edge absorbs a trajectory that has not reached it.

Both step it with one Stormer-Verlet (leapfrog) step, which holds H up to
a bounded error of order step**2, without drift (Hairer, Lubich & Wanner,
*Geometric Numerical Integration*, 2006):

* :func:`integrate` records one trajectory, stepping one pair on Python
  floats in the caller's time unit.
* :func:`batch_final_states`, the basin oracle, returns only where each
  start ends.  It steps the pairs still active as numpy arrays until only
  a few are left, then steps each of those on Python floats with the step
  :func:`integrate` takes, bit for bit the same.

A game's time scale is s = max(|k0|, |k0 + k1|, |g0|, |g0 + g1|), the
largest bracket at a corner, which is positive because k0 = b_d - c_d > 0;
multiplying every payoff by c multiplies s by c.  The oracle steps in the
game's own time, unit 1/s: it divides its step by s, so a scaled game takes
the same steps (the same bits when c is a power of two).  :func:`integrate`
takes ``step`` and ``horizon`` in the caller's time unit and scales only its
convergence tolerance by s, so a scaled game takes the same steps when its
step and horizon are divided by c.

Both read a pair as settled in a trapping quadrant of a corner: a coordinate
at +-inf is settled on its edge, and each finite coordinate's velocity is
non-zero and has the certified sign of its limit at that corner (dx/dt
tends to D1 = k0 + k1 as alpha tends to 1, else to D0 = k0; dy/dt to
A1 = g0 + g1 as beta tends to 1, else to A0 = g0), the sign
:func:`cyberevo.game.corner_signs` decides for the classifier too.  Each
velocity is monotone in the other coordinate's sigmoid, so from there the
pair goes monotonically to that corner; where both coordinates are finite,
the classifier calls it Stable.  A finite coordinate whose limit has a
sign undecidable in float64 is never settled: its corner is NonHyperbolic.
Both test the corner (beta, alpha) = ([dx/dt > 0], [dy/dt > 0]) that the
pair heads for; :func:`integrate` asks as well that it be the corner the
pair is nearest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntegrationError, is_integer, is_real, require
from .game import GameParams, PopulationState, brackets, corner_signs, field_coefficients

__all__ = [
    "PopulationState",
    "FieldValue",
    "Trajectory",
    "field_coefficients",
    "replicator_field",
    "integrate",
    "field_grid",
    "batch_final_states",
    "DEFAULT_STEP",
    "DEFAULT_HORIZON",
    "DEFAULT_CONVERGENCE_TOL",
]

#: :func:`integrate` defaults: fixed leapfrog step and total time horizon,
#: in the caller's time unit, and the max-norm field, per unit of the
#: game's own time (the field divided by s; see the module docstring),
#: below which a trapped pair counts as converged.
DEFAULT_STEP = 0.05
DEFAULT_HORIZON = 1000.0
DEFAULT_CONVERGENCE_TOL = 1e-9

#: Leapfrog steps between two trap tests of :func:`batch_final_states` and
#: :func:`integrate`.
TRAP_TEST_STRIDE = 8

#: Active pairs at or below which :func:`batch_final_states` steps each pair
#: on Python floats: about where one vectorized step, some 17 numpy calls,
#: costs as much as that many one-pair float steps.
_FLOAT_TAIL_PAIRS = 16

#: The ends of the open unit interval in float64.
_ABOVE_ZERO = float(np.nextafter(0.0, 1.0))
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class FieldValue:
    """Replicator field components (d_beta/dt, d_alpha/dt)."""

    d_beta: float
    d_alpha: float


@dataclass(frozen=True)
class Trajectory:
    """Recorded integration output.

    ``samples`` holds (t, state) at step 0 and every recorded step after it;
    times are strictly increasing and every state lies in the closed unit
    square.  ``converged`` is true when the run ended, at or before the
    horizon, settled next to the corner it heads for and is nearest (see
    :func:`integrate`); from an interior start, that corner is then Stable.
    """

    samples: tuple[tuple[float, PopulationState], ...]
    converged: bool
    final_state: PopulationState


def _check_span(step: float, horizon: float) -> None:
    require(is_real(step), "step finite real", step=step)
    require(is_real(horizon), "horizon finite real", horizon=horizon)
    require(step > 0.0, "step > 0", step=step)
    require(horizon >= step, "horizon >= step", horizon=horizon, step=step)
    require(math.isfinite(horizon / step), "horizon / step finite", horizon=horizon, step=step)


def replicator_field(params: GameParams, state: PopulationState) -> FieldValue:
    """Evaluate the replicator vector field at one state.

    Parameters
    ----------
    params : GameParams
    state : PopulationState

    Returns
    -------
    FieldValue
        Exactly (0, 0) at each of the four corners: the logistic prefactors
        beta(1-beta) and alpha(1-alpha) vanish there for any parameters.
    """
    k0, k1, g0, g1 = field_coefficients(params)
    beta, alpha = state.beta, state.alpha
    return FieldValue(beta * (1.0 - beta) * (k0 + k1 * alpha),
                      alpha * (1.0 - alpha) * (g0 + g1 * beta))


def _time_scale(k0, k1, g0, g1):
    # The game's time scale s (see the module docstring), for floats or per
    # game for arrays.
    return np.max(np.abs([k0, k0 + k1, g0, g0 + g1]), axis=0)


def integrate(
    params: GameParams,
    start: PopulationState,
    step: float = DEFAULT_STEP,
    horizon: float = DEFAULT_HORIZON,
    record_stride: int = 1,
) -> Trajectory:
    """Integrate the replicator field with the leapfrog of the basin oracle.

    The steps are those of :func:`batch_final_states` on one pair, on Python
    floats, in log-odds (x, y) = (logit beta, logit alpha), but in the
    caller's time unit: the brackets are multiplied by ``step``, not by
    ``step / s``.  Each recorded state is mapped back with beta = sigma(x),
    alpha = sigma(y), where sigma(z) = 1 / (1 + exp(-z)) is exactly 1 or 0
    at +-inf, so an edge or corner start keeps its infinite coordinate and
    stays on its edge.  The step kernel returns the alpha of its last
    half-kick, which is sigma(y) at the block's end; this function records
    and trap-tests with it, so only beta costs an exp at a block's end.

    Every ``TRAP_TEST_STRIDE`` steps, and after the last, the run stops
    with ``converged=True`` if three things hold: the pair is in a trapping
    quadrant of the corner it heads for (the oracle's test; see the module
    docstring), that corner is the one it is nearest, the corner of the
    signs of x and y, and the field's max-norm in (beta, alpha), divided by
    the game's time scale s, is below :data:`DEFAULT_CONVERGENCE_TOL`.  The
    second keeps a run that passes a saddle corner, where the field is small
    too, from stopping there once it is trapped by the sink.  A finite
    coordinate whose limit has a sign undecidable in float64 is
    never settled, so an interior run that ends next to a NonHyperbolic
    corner reports ``converged=False``.  The leapfrog holds the first
    integral H up to a bounded error of order ``step**2``, so a recorded
    trajectory and the oracle agree on the basin of a start that is not
    that close to a basin's border.

    Parameters
    ----------
    params : GameParams
    start : PopulationState
        Initial state in the closed unit square.
    step : float
        Fixed time step in the caller's time unit (not divided by s),
        finite and > 0.
    horizon : float
        Total integration time in the same unit, finite and >= step.
    record_stride : int
        Keep every ``record_stride``-th sample (step 0 and the final step
        are always kept); an integer >= 1, not a bool (so a float is
        refused).

    Returns
    -------
    Trajectory

    Raises
    ------
    ParameterError
        If ``step``, ``horizon`` or ``record_stride`` breaks its constraint.
    IntegrationError
        If a log-odds coordinate that started finite turns non-finite, or
        one turns NaN; the message names the step that ends the block of
        steps in which it did, at most ``TRAP_TEST_STRIDE`` long.
    """
    _check_span(step, horizon)
    require(is_integer(record_stride), "record_stride integer", record_stride=record_stride)
    stride = int(record_stride)
    require(stride >= 1, "record_stride >= 1", record_stride=record_stride)
    k0, k1, g0, g1 = field_coefficients(params)
    hk0, hk1, hg0, hg1 = step * k0, step * k1, step * g0, step * g1
    sx0, sx1, sy0, sy1 = corner_signs(*params.as_tuple())
    # The field's bound, times the step as the velocities are.
    tol = DEFAULT_CONVERGENCE_TOL * float(_time_scale(k0, k1, g0, g1)) * step
    x0, y0 = _log_odds(np.array([start.beta, start.alpha])).tolist()
    # An edge coordinate gets the oracle's velocity +-inf toward its edge.
    if math.isinf(x0):
        hk0, hk1, sx0, sx1 = x0, 0.0, math.copysign(1.0, x0), math.copysign(1.0, x0)
    if math.isinf(y0):
        hg0, hg1, sy0, sy1 = y0, 0.0, math.copysign(1.0, y0), math.copysign(1.0, y0)
    n_steps = int(round(horizon / step))
    samples: list[tuple[float, PopulationState]] = [(0.0, start)]
    x, y, taken, converged = x0, y0, 0, False
    # A start at logit -744 overflows exp to inf, which gives sigma = 0.
    with np.errstate(over="ignore"):
        vx = hk0 + hk1 * float(_sigmoid(y))
        while taken < n_steps and not converged:
            block = min(stride - taken % stride, TRAP_TEST_STRIDE - taken % TRAP_TEST_STRIDE,
                        n_steps - taken)
            x, y, vx, alpha = _leapfrog(block, x, y, vx, hk0, hk1, hg0, hg1)
            taken += block
            # z - z is 0.0 iff z is finite; an edge coordinate keeps its infinity.
            if x - x != 0.0 and x != x0 or y - y != 0.0 and y != y0:
                raise IntegrationError(f"non-finite state at step {taken}")
            beta = 1.0 / (1.0 + float(np.exp(-x)))
            if taken % stride == 0:
                samples.append((taken * step, PopulationState(beta, alpha)))
            if taken % TRAP_TEST_STRIDE == 0 or taken == n_steps:
                vy = hg0 + hg1 * beta
                # _float_leapfrog's trap test, then the nearest corner and the
                # field.  On an edge, beta (1 - beta) is 0 and vx +-inf: NaN,
                # which passes.
                converged = (vx * (sx1 if vy > 0.0 else sx0) > 0.0
                             and vy * (sy1 if vx > 0.0 else sy0) > 0.0
                             and (vx > 0.0) == (x > 0.0) and (vy > 0.0) == (y > 0.0)
                             and not abs(beta * (1.0 - beta) * vx) >= tol
                             and not abs(alpha * (1.0 - alpha) * vy) >= tol)
    if taken % stride:
        samples.append((taken * step, PopulationState(beta, alpha)))
    return Trajectory(tuple(samples), converged, samples[-1][1])


def field_grid(
    params: GameParams, resolution: int
) -> list[tuple[PopulationState, FieldValue]]:
    """Evaluate the field on a uniform lattice over the unit square.

    Points are returned row-major: beta ascending in the outer loop, alpha
    ascending in the inner one, ``resolution`` points per axis, an integer
    >= 2 and not a bool.
    """
    require(is_integer(resolution) and resolution >= 2, "resolution >= 2",
            resolution=resolution)
    out: list[tuple[PopulationState, FieldValue]] = []
    denom = resolution - 1
    for i in range(resolution):
        beta = i / denom
        for j in range(resolution):
            alpha = j / denom
            state = PopulationState(beta, alpha)
            out.append((state, replicator_field(params, state)))
    return out


def _log_odds(p: np.ndarray) -> np.ndarray:
    # logit(p), -inf at 0 (and -0.0) and +inf at 1.
    with np.errstate(divide="ignore"):
        return np.log(p) - np.log1p(-p)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-z) overflows to inf for z below about -709, giving exactly 0.
    return 1.0 / (1.0 + np.exp(-z))


def _leapfrog(n, x, y, vx, hk0, hk1, hg0, hg1):
    # n >= 1 leapfrog steps of one pair on Python floats, the step of the
    # vector loop in batch_final_states: vx is dx/dt times the step, carried
    # from one step's last half-kick to the next step's first, and hk0 ...
    # hg1 are the brackets times the step.  Float + * / are numpy's float64
    # operations, and np.exp on a float runs the ufunc loop an array runs
    # (math.exp differs in the last bit), so the bits are the vector loop's.
    # Also returns the last half-kick's alpha = sigma(y) at the final y, bit
    # for bit _sigmoid(y), which integrate records and tests with.
    exp = np.exp
    for _ in range(n):
        x += 0.5 * vx
        y += hg0 + hg1 * (1.0 / (1.0 + float(exp(-x))))
        alpha = 1.0 / (1.0 + float(exp(-y)))
        vx = hk0 + hk1 * alpha
        x += 0.5 * vx
    return x, y, vx, alpha


def _float_leapfrog(taken, n_steps, x, y, vx, x0, y0, hk0, hk1, hg0, hg1, sx0, sx1, sy0, sy1):
    # batch_final_states' blocks, finiteness check and trap test for one
    # pair on Python floats, from step ``taken``.  Returns the pair's final
    # log-odds, +-inf toward the corner a trapped pair heads for, and the
    # step of the block in which it left float range, or None.
    while taken < n_steps:
        block = min(TRAP_TEST_STRIDE, n_steps - taken)
        x, y, vx, _ = _leapfrog(block, x, y, vx, hk0, hk1, hg0, hg1)
        taken += block
        # z - z is 0.0 iff z is finite; an edge coordinate keeps its infinity.
        if x - x != 0.0 and x != x0 or y - y != 0.0 and y != y0:
            return x, y, taken
        vy = hg0 + hg1 * (1.0 / (1.0 + float(np.exp(-x))))
        # The trap test at the corner ([vx > 0], [vy > 0]) the pair heads for,
        # written out here and in integrate: as a function, its call per
        # block cost the basin benchmark 3 % of its games/s.
        if vx * (sx1 if vy > 0.0 else sx0) > 0.0 and vy * (sy1 if vx > 0.0 else sy0) > 0.0:
            return math.copysign(math.inf, vx), math.copysign(math.inf, vy), None
    return x, y, None


def batch_final_states(
    games: Sequence[GameParams],
    starts: Sequence[PopulationState],
    step: float = 0.25,
    horizon: float = 1e5,
) -> np.ndarray:
    """Where every (game, start) pair ends: the basin-of-attraction oracle.

    Every start is integrated with the log-odds leapfrog step (see the
    module docstring), vectorized over the pairs still active.  Once no
    more than ``_FLOAT_TAIL_PAIRS`` (16) are left, where numpy's per-call
    cost would outweigh the arithmetic, each of them runs on to its end on
    Python floats, with the same operations and ``np.exp``, so the results
    are bit for bit the vector loop's.  Each game runs in its own time: its
    brackets are divided by s (see the module docstring), so ``step`` and
    ``horizon`` are in units of 1/s.

    Every ``TRAP_TEST_STRIDE`` steps each pair is tested for a trapping
    quadrant (see the module docstring) of the corner (beta, alpha) =
    ([dx/dt > 0], [dy/dt > 0]) that it heads for.  A trapped pair's final
    state is written as that exact corner, a sink, and the pair leaves the
    active set.  The leapfrog holds the first integral up to a bounded
    error of order ``step**2``, so a start that close to a saddle's stable
    manifold, the border of two basins, may end in either basin.

    An edge start (beta or alpha in {0, 1}) has a coordinate at +-inf that
    no step moves, so it ends at the corner its edge's constant bracket
    points to, where that bracket's sign is certain.  A pair whose finite
    coordinates all have exactly zero velocity at the start is a fixed
    point and ends where it began: a corner start, or an edge start whose
    bracket is zero.

    A pair still active after ``horizon / step`` steps is unresolved (for
    example, in a game with a bracket that is zero or whose sign is
    undecidable in float64, so that no trap holds).  It is returned as its
    last state: an edge coordinate on its edge, each other coordinate
    strictly inside (0, 1).  So a final state lies exactly on a corner if
    and only if the pair was trapped or started on that corner.  An
    unresolved pair costs the full ``horizon / step`` leapfrog steps,
    400,000 at the defaults, on floats once few pairs are left: three edge
    starts of one game whose A0 bracket lies in its rounding band took
    0.6 s (2-vCPU VM), against 3.6-7.5 s for the vector loop alone.

    Returns
    -------
    numpy.ndarray
        Shape (n_games, n_starts, 2); [..., 0] is beta, [..., 1] is alpha.
        Empty when there are no games or no starts.

    Raises
    ------
    ParameterError
        If ``step`` or ``horizon`` is not a finite real number, ``step`` is
        not positive or ``horizon`` is shorter than ``step``, as in
        :func:`integrate`.
    IntegrationError
        If a log-odds coordinate that started finite turns non-finite, or
        one turns NaN, as in :func:`integrate`; the message names the step
        index.
    """
    _check_span(step, horizon)
    finals = np.empty((len(games), len(starts), 2))
    if finals.size == 0:
        return finals
    finals[...] = [(s.beta, s.alpha) for s in starts]
    columns = np.array([g.as_tuple() for g in games], dtype=float).T
    k0, k1, g0, g1 = brackets(*columns)
    xs, ys = map(_log_odds, finals[0].T)
    n_steps = int(round(horizon / step))
    taken = 0
    # A huge step may overflow here or in the steps; the finiteness check
    # below reports it as an IntegrationError.
    with np.errstate(over="ignore", invalid="ignore"):
        # Per game, the brackets times the scaled step.
        scaled_step = step / _time_scale(k0, k1, g0, g1)
        hk0, hk1, hg0, hg1 = (scaled_step * c for c in (k0, k1, g0, g1))
        # Where every finite coordinate has zero velocity, the step moves
        # nothing: the pair keeps its start.
        dx = hk0[:, None] + hk1[:, None] * _sigmoid(ys)
        dy = hg0[:, None] + hg1[:, None] * _sigmoid(xs)
        still = ((np.isinf(xs) | (dx == 0.0)) & (np.isinf(ys) | (dy == 0.0))).ravel()
        # The active pairs: flat index, log-odds state and its start, and, per
        # pair, the certified signs of the velocities' limits as the other
        # frequency tends to 0 or to 1.
        pair = np.flatnonzero(~still)
        game, start = np.divmod(pair, len(starts))
        x0, y0 = xs[start], ys[start]
        x, y = x0.copy(), y0.copy()
        hk0, hk1, hg0, hg1 = (c[game] for c in (hk0, hk1, hg0, hg1))
        sx0, sx1, sy0, sy1 = (c[game] for c in corner_signs(*columns))
        # An edge coordinate is given the velocity +-inf toward the edge it is
        # on, with that sign as both limits.  A step leaves it where it is,
        # and the trap test reads it as settled there and naming that side
        # of the corner.
        for z0, h0, h1, s0, s1 in ((x0, hk0, hk1, sx0, sx1), (y0, hg0, hg1, sy0, sy1)):
            edge = np.isinf(z0)
            h0[edge], h1[edge] = z0[edge], 0.0
            s0[edge] = s1[edge] = np.sign(z0[edge])
        # dx/dt times the scaled step, carried from one step's last half-kick
        # to the next step's first.
        vx = hk0 + hk1 * _sigmoid(y)
        flat = finals.reshape(-1, 2)
        while pair.size > _FLOAT_TAIL_PAIRS and taken < n_steps:
            block = min(TRAP_TEST_STRIDE, n_steps - taken)
            for _ in range(block):
                x += 0.5 * vx
                y += hg0 + hg1 * _sigmoid(x)
                vx = hk0 + hk1 * _sigmoid(y)
                x += 0.5 * vx
            taken += block
            # Only an edge coordinate may be infinite, and only at its start.
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
        # The last few pairs run one after another, each to its end; the
        # error names the earliest block that left float range over all of
        # them, as the vector loop would, so none need run past it.
        failed = None
        state = (x, y, vx, x0, y0, hk0, hk1, hg0, hg1, sx0, sx1, sy0, sy1)
        for i, args in enumerate(zip(*(v.tolist() for v in state))):
            x[i], y[i], stop = _float_leapfrog(taken, failed or n_steps, *args)
            failed = stop or failed
        if failed:
            raise IntegrationError(f"non-finite state at step {failed}")
        # A trapped pair's +-inf maps to its corner exactly.  An unresolved
        # pair may have run past logit -709, where exp overflows.
        for column, z in enumerate((x, y)):
            p = _sigmoid(z)
            flat[pair, column] = np.where(np.isinf(z), p, np.clip(p, _ABOVE_ZERO, _BELOW_ONE))
    return finals
