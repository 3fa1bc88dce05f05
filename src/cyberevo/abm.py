"""Finite-population imitation dynamics: an independent stochastic oracle.

The analytic model assumes infinite, well-mixed populations.  This module
simulates two finite populations of N agents each under pairwise-comparison
imitation: every step, one focal agent per population computes the expected
payoff of its strategy against the opposite population's current mixture,
compares with a uniformly drawn same-population peer, and copies the peer's
strategy with logistic probability 1/(1 + exp(-selection * (peer - own))).
With a small mutation probability the focal agent instead adopts a
uniformly random strategy.  Time-averaged frequencies after burn-in should
sit near the replicator-stable corner when one exists; that agreement is
the oracle check.

Determinism: a single seeded generator drives the whole run; identical
configurations produce identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PopulationState
from .errors import ConfigError
from .game import GameParams, field_coefficients

__all__ = ["AbmConfig", "AbmResult", "simulate"]

#: Uniform draws consumed per population per step (see _BLOCK layout).
_DRAWS_PER_STEP = 5

#: Steps simulated per pregenerated random block.
_BLOCK = 65536

#: Maximum number of thinned trajectory samples (plus the initial state).
_MAX_SAMPLES = 1000


@dataclass(frozen=True)
class AbmConfig:
    """Simulation settings.

    ``population_size`` is the number of agents in each population.  Means
    are accumulated over every step after ``burn_in``.  Defaults give a
    long, strongly selected, lightly mutating run from the square's centre.
    """

    population_size: int = 1000
    selection_strength: float = 10.0
    mutation_rate: float = 0.001
    steps: int = 2_000_000
    burn_in: int = 500_000
    seed: int = 1
    initial_state: PopulationState = PopulationState(0.5, 0.5)

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ConfigError(
                f"population_size must be >= 2 (got {self.population_size!r})"
            )
        if self.selection_strength < 0.0:
            raise ConfigError(
                f"selection_strength must be >= 0 (got {self.selection_strength!r})"
            )
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(
                f"mutation_rate must be in [0, 1] (got {self.mutation_rate!r})"
            )
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1 (got {self.steps!r})")
        if not 0 <= self.burn_in < self.steps:
            raise ConfigError(
                f"burn_in must satisfy 0 <= burn_in < steps "
                f"(burn_in={self.burn_in!r}, steps={self.steps!r})"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError(
                f"seed must be a 64-bit unsigned integer (got {self.seed!r})"
            )


@dataclass(frozen=True)
class AbmResult:
    """Post-burn-in mean frequencies and a thinned (step, beta, alpha) series."""

    mean_beta: float
    mean_alpha: float
    trajectory_thinned: tuple[tuple[int, float, float], ...]


def _logistic(x: float) -> float:
    # Overflow-safe 1 / (1 + exp(-x)).
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def simulate(params: GameParams, config: AbmConfig) -> AbmResult:
    """Run the two-population imitation process for one game.

    Both focal updates within a step read the start-of-step counts, and the
    peer is drawn uniformly among the N-1 other agents.  Only the payoff
    difference between the two strategies enters the imitation probability;
    against the opposite mixture it equals the replicator field bracket
    (k0 + k1*alpha for defenders, g0 + g1*beta for attackers).
    """
    k0, k1, g0, g1 = field_coefficients(params)
    n_agents = config.population_size
    sel = config.selection_strength
    mut = config.mutation_rate
    rng = np.random.default_rng(config.seed)
    n_defending = round(config.initial_state.beta * n_agents)
    n_attacking = round(config.initial_state.alpha * n_agents)

    stride = max(1, config.steps // _MAX_SAMPLES)
    trajectory = [(0, n_defending / n_agents, n_attacking / n_agents)]
    sum_beta = 0
    sum_alpha = 0
    tally_steps = config.steps - config.burn_in

    step = 0
    while step < config.steps:
        block = min(_BLOCK, config.steps - step)
        draws = rng.uniform(size=(block, 2, _DRAWS_PER_STEP))
        for row in range(block):
            step += 1
            nd0 = n_defending
            na0 = n_attacking
            # Defender focal against the attackers' current mixture.
            u_focal, u_mut, u_strat, u_peer, u_imit = draws[row, 0]
            focal = 1 if u_focal < nd0 / n_agents else 0
            if u_mut < mut:
                new = 1 if u_strat < 0.5 else 0
                n_defending += new - focal
            else:
                peer = 1 if u_peer < (nd0 - focal) / (n_agents - 1) else 0
                if peer != focal:
                    advantage = k0 + k1 * (na0 / n_agents)
                    gap = advantage if peer == 1 else -advantage
                    if u_imit < _logistic(sel * gap):
                        n_defending += peer - focal
            # Attacker focal against the defenders' start-of-step mixture.
            u_focal, u_mut, u_strat, u_peer, u_imit = draws[row, 1]
            focal = 1 if u_focal < na0 / n_agents else 0
            if u_mut < mut:
                new = 1 if u_strat < 0.5 else 0
                n_attacking += new - focal
            else:
                peer = 1 if u_peer < (na0 - focal) / (n_agents - 1) else 0
                if peer != focal:
                    advantage = g0 + g1 * (nd0 / n_agents)
                    gap = advantage if peer == 1 else -advantage
                    if u_imit < _logistic(sel * gap):
                        n_attacking += peer - focal
            if step > config.burn_in:
                sum_beta += n_defending
                sum_alpha += n_attacking
            if step % stride == 0:
                trajectory.append(
                    (step, n_defending / n_agents, n_attacking / n_agents)
                )
    if trajectory[-1][0] != config.steps:
        trajectory.append(
            (config.steps, n_defending / n_agents, n_attacking / n_agents)
        )
    return AbmResult(
        mean_beta=sum_beta / (tally_steps * n_agents),
        mean_alpha=sum_alpha / (tally_steps * n_agents),
        trajectory_thinned=tuple(trajectory),
    )
