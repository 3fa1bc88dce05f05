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

The field is a cubic polynomial on the compact square, so a fixed-step
classical Runge-Kutta scheme is accurate and keeps every run deterministic.
The field is written once, in ``_field``, and the Runge-Kutta update once, in
``_rk4_step``; both take Python floats (:func:`integrate`) or numpy arrays
(:func:`batch_final_states`) alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TypeVar

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

#: Integrator defaults: fixed step, total time horizon, convergence tolerance.
DEFAULT_STEP = 0.01
DEFAULT_HORIZON = 1000.0
DEFAULT_CONVERGENCE_TOL = 1e-9

#: A float in :func:`integrate`, an array in :func:`batch_final_states`.
_V = TypeVar("_V", float, np.ndarray)

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


def _field(coeffs: tuple, beta: _V, alpha: _V) -> tuple[_V, _V]:
    k0, k1, g0, g1 = coeffs
    return (
        beta * (1.0 - beta) * (k0 + k1 * alpha),
        alpha * (1.0 - alpha) * (g0 + g1 * beta),
    )


def _rk4_step(
    coeffs: tuple, beta: _V, alpha: _V, h: float, f1: tuple[_V, _V]
) -> tuple[_V, _V]:
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


def batch_final_states(
    games: Sequence[GameParams],
    starts: Sequence[PopulationState],
    step: float = 0.05,
    horizon: float = 3000.0,
) -> np.ndarray:
    """Integrate every (game, start) pair and return the final states.

    Vectorized over the full (n_games, n_starts) panel with the same field,
    RK4 step and clamping as :func:`integrate`; used as the
    basin-of-attraction oracle where per-trajectory sampling records are
    not needed.

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
    if len(games) == 0 or len(starts) == 0:
        return np.empty((len(games), len(starts), 2))
    # One (n_games, 1) column per coefficient, broadcast across the starts.
    table = np.array([field_coefficients(g) for g in games], dtype=float)
    coeffs = tuple(table.T[:, :, None])
    beta = np.tile(
        np.array([s.beta for s in starts], dtype=float), (len(games), 1)
    )
    alpha = np.tile(
        np.array([s.alpha for s in starts], dtype=float), (len(games), 1)
    )
    n_steps = int(round(horizon / step))
    for k in range(1, n_steps + 1):
        beta, alpha = _rk4_step(coeffs, beta, alpha, step, _field(coeffs, beta, alpha))
        np.clip(beta, 0.0, 1.0, out=beta)
        np.clip(alpha, 0.0, 1.0, out=alpha)
        if k % 256 == 0 and not (
            np.isfinite(beta).all() and np.isfinite(alpha).all()
        ):
            raise IntegrationError(f"non-finite state at step {k}")
    if not (np.isfinite(beta).all() and np.isfinite(alpha).all()):
        raise IntegrationError(f"non-finite state at step {n_steps}")
    return np.stack([beta, alpha], axis=-1)
