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

Two fixed-step integrators serve two needs; both are deterministic.

* :func:`integrate` records trajectories for plots and tables.  The field is
  a cubic polynomial on the compact square, so classical Runge-Kutta in
  (beta, alpha) is accurate; the field is written once, in ``_field``, and
  the update once, in ``_rk4_step``.
* :func:`batch_final_states`, the basin oracle, needs only where each start
  ends.  In log-odds x = logit(beta), y = logit(alpha) the field is

      dx/dt = k0 + k1 sigma(y)          dy/dt = g0 + g1 sigma(x)

  with sigma the logistic function.  This system is Hamiltonian and
  separable: H(x, y) = A(x) - B(y), with A(x) = g0 x + g1 softplus(x) and
  B(y) = k0 y + k1 softplus(y), is constant along every trajectory, the
  classical first integral of 2x2 bimatrix replicator dynamics (Hofbauer &
  Sigmund, *Evolutionary Games and Population Dynamics*, 1998, ch. 10).  The
  explicit Stormer-Verlet (leapfrog) step holds it without drift (Hairer,
  Lubich & Wanner, *Geometric Numerical Integration*, 2006), and
  1 - beta = sigma(-x) keeps full relative precision next to the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntegrationError, ParameterError
from .game import GameParams, field_coefficients

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

#: :func:`integrate` defaults: fixed step, total time horizon, convergence tolerance.
DEFAULT_STEP = 0.01
DEFAULT_HORIZON = 1000.0
DEFAULT_CONVERGENCE_TOL = 1e-9

#: Leapfrog steps between two trap tests in :func:`batch_final_states`.
TRAP_TEST_STRIDE = 8

#: The ends of the open unit interval in float64.
_ABOVE_ZERO = float(np.nextafter(0.0, 1.0))
_BELOW_ONE = float(np.nextafter(1.0, 0.0))

#: Consecutive sub-tolerance steps required before declaring convergence.
#: A single reading is not enough: the field is also small while a
#: trajectory crosses a slow manifold near a saddle.
CONVERGENCE_RUN = 100


@dataclass(frozen=True)
class PopulationState:
    """Frequencies (beta, alpha) of Defence and Attack, each in [0, 1]."""

    beta: float
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.beta <= 1.0):
            raise ParameterError(
                f"constraint violated: 0 <= beta <= 1 (beta={self.beta!r})"
            )
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError(
                f"constraint violated: 0 <= alpha <= 1 (alpha={self.alpha!r})"
            )


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
    square.  ``converged`` is true when the field magnitude (max-norm)
    stayed below the convergence tolerance for 100 consecutive steps before
    the horizon.
    """

    samples: tuple[tuple[float, PopulationState], ...]
    converged: bool
    final_state: PopulationState


def _field(coeffs: tuple, beta: float, alpha: float) -> tuple[float, float]:
    k0, k1, g0, g1 = coeffs
    return (
        beta * (1.0 - beta) * (k0 + k1 * alpha),
        alpha * (1.0 - alpha) * (g0 + g1 * beta),
    )


def _rk4_step(
    coeffs: tuple, beta: float, alpha: float, h: float, f1: tuple[float, float]
) -> tuple[float, float]:
    # One unclamped classical Runge-Kutta step.  ``f1``, the field at
    # (beta, alpha), comes in because integrate has it from its convergence test.
    f2 = _field(coeffs, beta + 0.5 * h * f1[0], alpha + 0.5 * h * f1[1])
    f3 = _field(coeffs, beta + 0.5 * h * f2[0], alpha + 0.5 * h * f2[1])
    f4 = _field(coeffs, beta + h * f3[0], alpha + h * f3[1])
    return (
        beta + (h / 6.0) * (f1[0] + 2.0 * f2[0] + 2.0 * f3[0] + f4[0]),
        alpha + (h / 6.0) * (f1[1] + 2.0 * f2[1] + 2.0 * f3[1] + f4[1]),
    )


def _check_span(step: float, horizon: float) -> None:
    if step <= 0.0:
        raise ParameterError(f"constraint violated: step > 0 (step={step!r})")
    if horizon < step:
        raise ParameterError(
            f"constraint violated: horizon >= step (horizon={horizon!r}, step={step!r})"
        )


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
    return FieldValue(*_field(field_coefficients(params), state.beta, state.alpha))


def integrate(
    params: GameParams,
    start: PopulationState,
    step: float = DEFAULT_STEP,
    horizon: float = DEFAULT_HORIZON,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
    record_stride: int = 1,
) -> Trajectory:
    """Integrate the replicator field with fixed-step classical Runge-Kutta.

    Parameters
    ----------
    params : GameParams
    start : PopulationState
        Initial state in the closed unit square.
    step : float
        Fixed time step, > 0.
    horizon : float
        Total integration time, >= step.
    convergence_tol : float
        Max-norm field threshold; 100 consecutive sub-threshold steps stop
        the run early with ``converged=True``.
    record_stride : int
        Keep every ``record_stride``-th sample (step 0 and the final step
        are always kept).

    Returns
    -------
    Trajectory

    Raises
    ------
    IntegrationError
        If the state turns non-finite; the message names the step index.

    Notes
    -----
    Analytically the unit square is forward-invariant; each update is
    clamped back to [0, 1] squared to remove floating-point escape without
    changing any limit.
    """
    _check_span(step, horizon)
    if record_stride < 1:
        raise ParameterError(
            f"constraint violated: record_stride >= 1 (record_stride={record_stride!r})"
        )
    coeffs = field_coefficients(params)
    n_steps = int(round(horizon / step))
    beta, alpha = start.beta, start.alpha
    samples: list[tuple[float, PopulationState]] = [(0.0, start)]
    quiet_steps = 0
    converged = False
    f = _field(coeffs, beta, alpha)
    for k in range(1, n_steps + 1):
        beta, alpha = _rk4_step(coeffs, beta, alpha, step, f)
        if not (math.isfinite(beta) and math.isfinite(alpha)):
            raise IntegrationError(f"non-finite state at step {k}")
        beta = min(1.0, max(0.0, beta))
        alpha = min(1.0, max(0.0, alpha))
        f = _field(coeffs, beta, alpha)
        if max(abs(f[0]), abs(f[1])) < convergence_tol:
            quiet_steps += 1
        else:
            quiet_steps = 0
        if k % record_stride == 0:
            samples.append((k * step, PopulationState(beta, alpha)))
        if quiet_steps >= CONVERGENCE_RUN:
            converged = True
            break
    if k % record_stride != 0:
        samples.append((k * step, PopulationState(beta, alpha)))
    final_state = samples[-1][1]
    return Trajectory(tuple(samples), converged, final_state)


def field_grid(
    params: GameParams, resolution: int
) -> list[tuple[PopulationState, FieldValue]]:
    """Evaluate the field on a uniform lattice over the unit square.

    Points are returned row-major: beta ascending in the outer loop, alpha
    ascending in the inner one, ``resolution`` points per axis.
    """
    if resolution < 2:
        raise ParameterError(
            f"constraint violated: resolution >= 2 (resolution={resolution!r})"
        )
    out: list[tuple[PopulationState, FieldValue]] = []
    denom = resolution - 1
    for i in range(resolution):
        beta = i / denom
        for j in range(resolution):
            alpha = j / denom
            state = PopulationState(beta, alpha)
            out.append((state, replicator_field(params, state)))
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-z) overflows to inf for z below about -709, giving exactly 0.
    return 1.0 / (1.0 + np.exp(-z))


def _settle_on_edge(rate: np.ndarray, start: np.ndarray) -> np.ndarray:
    # On an invariant edge the other frequency is logistic with a constant
    # rate: it ends at 1 if the rate is positive, at 0 if it is negative,
    # and stays where it began if the rate is zero.
    return np.where(rate > 0.0, 1.0, np.where(rate < 0.0, 0.0, start))


def batch_final_states(
    games: Sequence[GameParams],
    starts: Sequence[PopulationState],
    step: float = 0.25,
    horizon: float = 1e5,
) -> np.ndarray:
    """Where every (game, start) pair ends: the basin-of-attraction oracle.

    Interior starts are integrated with the log-odds leapfrog step (see the
    module docstring), vectorized over the pairs still active.  Each game
    runs in its own scaled time: its brackets are divided by
    s = max(|k0|, |k0 + k1|, |g0|, |g0 + g1|), which is positive because
    k0 = b_d - c_d > 0.  So ``step`` and ``horizon`` are in units of 1/s,
    and a game whose payoffs are all multiplied by a constant takes the
    same steps.

    Every ``TRAP_TEST_STRIDE`` steps each pair is tested for a trapping
    quadrant: both velocities are non-zero, and each has the sign of its
    limit at the corner (beta, alpha) = ([dx/dt > 0], [dy/dt > 0]) that it
    heads for (dx/dt tends to k0 + k1 if alpha tends to 1, else to k0;
    dy/dt tends to g0 + g1 if beta tends to 1, else to g0).  Each velocity
    is monotone in the other coordinate's sigmoid, so from there the pair
    goes monotonically to that corner, which must be a sink.  The pair's
    final state is written as that exact corner and the pair leaves the
    active set.  The leapfrog holds the first integral up to a bounded
    error of order ``step**2``, so a start that close to a saddle's stable
    manifold, the border of two basins, may end in either basin.

    A start on an edge (beta or alpha in {0, 1}) stays on that invariant
    edge.  It ends at the corner that the sign of the edge's constant
    bracket points to, or where it began if that bracket is zero.  A
    corner start stays at its corner.

    A pair still active after ``horizon / step`` steps is unresolved (for
    example, in a game with a zero bracket).  It is returned as its last
    state, with each coordinate strictly inside (0, 1).  So a final state
    lies exactly on a corner if and only if the pair was resolved.

    Returns
    -------
    numpy.ndarray
        Shape (n_games, n_starts, 2); [..., 0] is beta, [..., 1] is alpha.
        Empty when there are no games or no starts.

    Raises
    ------
    ParameterError
        If ``step`` is not positive or ``horizon`` is shorter than ``step``,
        as in :func:`integrate`.
    IntegrationError
        If any state turns non-finite; the message names the step index.
    """
    _check_span(step, horizon)
    finals = np.empty((len(games), len(starts), 2))
    if finals.size == 0:
        return finals
    k0, k1, g0, g1 = np.array([field_coefficients(g) for g in games], dtype=float).T
    k01, g01 = k0 + k1, g0 + g1
    beta = np.broadcast_to([s.beta for s in starts], finals.shape[:2])
    alpha = np.broadcast_to([s.alpha for s in starts], finals.shape[:2])
    on_beta_edge = (beta == 0.0) | (beta == 1.0)
    on_alpha_edge = (alpha == 0.0) | (alpha == 1.0)
    finals[..., 0] = np.where(
        on_alpha_edge & ~on_beta_edge,
        _settle_on_edge(np.where(alpha == 1.0, k01[:, None], k0[:, None]), beta),
        beta,
    )
    finals[..., 1] = np.where(
        on_beta_edge & ~on_alpha_edge,
        _settle_on_edge(np.where(beta == 1.0, g01[:, None], g0[:, None]), alpha),
        alpha,
    )

    # The active pairs: flat index, log-odds state and, per pair, the signs
    # of the velocities' limits as the other frequency tends to 0 or to 1.
    pair = np.flatnonzero(~(on_beta_edge | on_alpha_edge))
    game = pair // len(starts)
    b, a = beta.ravel()[pair], alpha.ravel()[pair]
    x, y = np.log(b) - np.log1p(-b), np.log(a) - np.log1p(-a)
    sx0, sx1, sy0, sy1 = (np.sign(c)[game] for c in (k0, k01, g0, g01))
    flat = finals.reshape(-1, 2)
    n_steps = int(round(horizon / step))
    taken = 0
    # A huge step may overflow here or in the steps; the finiteness check
    # below reports it as an IntegrationError.
    with np.errstate(over="ignore", invalid="ignore"):
        # Per pair, the brackets times the scaled step.
        scaled_step = step / np.max(np.abs([k0, k01, g0, g01]), axis=0)
        hk0, hk1, hg0, hg1 = ((scaled_step * c)[game] for c in (k0, k1, g0, g1))
        # dx/dt times the scaled step, carried from one step's last half-kick
        # to the next step's first.
        vx = hk0 + hk1 * _sigmoid(y)
        while pair.size and taken < n_steps:
            block = min(TRAP_TEST_STRIDE, n_steps - taken)
            for _ in range(block):
                x += 0.5 * vx
                y += hg0 + hg1 * _sigmoid(x)
                vx = hk0 + hk1 * _sigmoid(y)
                x += 0.5 * vx
            taken += block
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise IntegrationError(f"non-finite state at step {taken}")
            vy = hg0 + hg1 * _sigmoid(x)
            to_beta, to_alpha = vx > 0.0, vy > 0.0
            trapped = (
                (vx != 0.0) & (vy != 0.0)
                & (np.sign(vx) == np.where(to_alpha, sx1, sx0))
                & (np.sign(vy) == np.where(to_beta, sy1, sy0))
            )
            if trapped.any():
                flat[pair[trapped]] = np.stack([to_beta, to_alpha], axis=-1)[trapped]
                keep = ~trapped
                pair, x, y, vx, hk0, hk1, hg0, hg1, sx0, sx1, sy0, sy1 = (
                    v[keep] for v in (pair, x, y, vx, hk0, hk1, hg0, hg1,
                                      sx0, sx1, sy0, sy1)
                )
    flat[pair, 0] = np.clip(_sigmoid(x), _ABOVE_ZERO, _BELOW_ONE)
    flat[pair, 1] = np.clip(_sigmoid(y), _ABOVE_ZERO, _BELOW_ONE)
    return finals
