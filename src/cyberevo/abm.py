"""Finite-population imitation dynamics: an independent stochastic oracle.

The analytic model assumes infinite, well-mixed populations.  This module
simulates two finite populations of N agents each under pairwise-comparison
imitation (Traulsen, Nowak & Pacheco, Phys. Rev. E 74, 011909, 2006): every
step, one focal agent per population computes the expected payoff of its
strategy against the opposite population's current mixture, compares with
a uniformly drawn same-population peer, and copies the peer's strategy
with logistic probability 1/(1 + exp(-selection * (peer - own))).  With a
small mutation probability the focal agent instead adopts a uniformly
random strategy.  Time-averaged frequencies after burn-in should sit near
the replicator-stable corner when one exists; that agreement is the oracle
check.

The chain is sampled from event to event, not from step to step
(Gillespie's direct method, 1977).  Given the start-of-step counts, the two
populations update independently and each count moves by at most one, up
or down with probabilities in closed form (:func:`_move_rates`).  So the
number of steps until the state next changes is geometric, the steps
before it leave the state as it is and add to the post-burn-in sums in
closed form, and which population moved at the changing step follows from
the two move probabilities.  This is the same Markov chain as the
step-by-step process, so results are exact in distribution; near a stable
corner almost every step changes nothing, and a run costs time in
proportion to the steps that change the state (``AbmResult.events``).
The random stream differs from the step-by-step sampler of earlier
versions, so per-seed results differ from theirs.

Two things keep an event cheap.  The move probabilities depend only on the
state, and a run keeps returning to the few states next to a stable corner,
so a per-run table keyed by the state holds them once computed; it is
emptied whenever it reaches ``_MOVE_TABLE_LIMIT`` entries (about 1.3 MB),
so its memory depends on neither ``steps`` nor ``population_size``.  The
four uniforms of an event are taken in order from blocks of
``_DRAW_BLOCK`` events drawn at once; ``Generator.random`` fills float64s
one generator output each, in sequence, so the stream and every per-seed
result are those of one ``rng.random(4)`` per event.

Determinism: a single seeded generator drives the whole run; identical
configurations produce identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, is_integer
from .game import GameParams, PopulationState, field_coefficients

__all__ = ["AbmConfig", "AbmResult", "simulate"]

#: Maximum number of thinned trajectory samples (plus the initial state).
_MAX_SAMPLES = 1000

#: Entries the per-run move table holds before it is emptied (about 1.3 MB).
_MOVE_TABLE_LIMIT = 4096

#: Events whose four uniforms are drawn from the generator in one call.
_DRAW_BLOCK = 256


@dataclass(frozen=True)
class AbmConfig:
    """Simulation settings.

    ``population_size`` is the number of agents in each population.  Means
    are accumulated over every step after ``burn_in``.  Defaults give a
    long, strongly selected, lightly mutating run from the square's centre.
    ``population_size``, ``steps``, ``burn_in`` and ``seed`` are integers
    (not bools).
    """

    population_size: int = 1000
    selection_strength: float = 10.0
    mutation_rate: float = 0.001
    steps: int = 2_000_000
    burn_in: int = 500_000
    seed: int = 1
    initial_state: PopulationState = PopulationState(0.5, 0.5)

    def __post_init__(self) -> None:
        if not is_integer(self.population_size) or self.population_size < 2:
            raise ConfigError(
                f"population_size must be an integer >= 2 (got {self.population_size!r})"
            )
        if not (math.isfinite(self.selection_strength) and self.selection_strength >= 0.0):
            raise ConfigError(
                f"selection_strength must be finite and >= 0 "
                f"(got {self.selection_strength!r})"
            )
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(
                f"mutation_rate must be in [0, 1] (got {self.mutation_rate!r})"
            )
        if not is_integer(self.steps) or self.steps < 1:
            raise ConfigError(f"steps must be an integer >= 1 (got {self.steps!r})")
        if not is_integer(self.burn_in) or not 0 <= self.burn_in < self.steps:
            raise ConfigError(
                f"burn_in must be an integer with 0 <= burn_in < steps "
                f"(burn_in={self.burn_in!r}, steps={self.steps!r})"
            )
        if not is_integer(self.seed) or not 0 <= self.seed < 2**64:
            raise ConfigError(
                f"seed must be a 64-bit unsigned integer (got {self.seed!r})"
            )


@dataclass(frozen=True)
class AbmResult:
    """Post-burn-in mean frequencies and a thinned (step, beta, alpha) series.

    ``events`` counts the steps that changed the state; the other
    ``steps - events`` steps were null steps, skipped without simulating
    them one by one.
    """

    mean_beta: float
    mean_alpha: float
    trajectory_thinned: tuple[tuple[int, float, float], ...]
    events: int


def _logistic(x: float) -> float:
    # Overflow-safe 1 / (1 + exp(-x)).
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def _move_rates(
    count: int, n_agents: int, advantage: float, sel: float, mut: float
) -> tuple[float, float]:
    """Probabilities that one population's strategy-1 count rises or falls
    by one in a step.

    It rises when a strategy-0 focal (probability (N-n)/N) mutates to
    strategy 1 (mut/2) or, not mutating, meets a strategy-1 peer among the
    N-1 others (n/(N-1)) and imitates it (logistic in sel * advantage).
    It falls by the mirror image.  ``advantage`` is the payoff of strategy
    1 minus strategy 0 against the opposite population's mixture.
    """
    share = count / n_agents
    meet = (1.0 - mut) / (n_agents - 1)
    up = (1.0 - share) * (0.5 * mut + meet * count * _logistic(sel * advantage))
    down = share * (0.5 * mut + meet * (n_agents - count) * _logistic(-sel * advantage))
    return up, down


def simulate(params: GameParams, config: AbmConfig) -> AbmResult:
    """Run the two-population imitation process for one game.

    Both focal updates within a step read the start-of-step counts, and the
    peer is drawn uniformly among the N-1 other agents.  Only the payoff
    difference between the two strategies enters the imitation probability;
    against the opposite mixture it equals the replicator field bracket
    (k0 + k1*alpha for defenders, g0 + g1*beta for attackers).

    The run jumps from one state-changing step (event) to the next.  With
    per-step move probabilities p_d and p_a of the two populations, a step
    changes the state with probability p = p_d + p_a - p_d*p_a, so the
    steps up to the next event are geometric in p, drawn by inversion from
    one uniform.  The state held over those steps enters the post-burn-in
    sums and the thinned trajectory in closed form.  At the event the
    defenders moved with probability p_d/p; if they did, the attackers
    also moved with probability p_a, else the attackers moved.  Each
    population that moved went up or down in proportion to its two move
    probabilities.  This samples the step-by-step chain exactly in
    distribution; with p = 0 (no mutation at a monomorphic corner) the run
    holds its state to the end.  Per-seed results differ from earlier
    versions, which drew five uniforms per population every step.

    Each state's move probabilities come from :func:`_move_rates` the first
    time the run visits it and from a bounded per-run table afterwards; the
    uniforms come in blocks.  Neither changes a value or the order of the
    draws, so results equal those of recomputing the rates and drawing
    ``rng.random(4)`` at every event.
    """
    k0, k1, g0, g1 = field_coefficients(params)
    n_agents = int(config.population_size)
    steps = int(config.steps)
    burn_in = int(config.burn_in)
    sel = config.selection_strength
    mut = config.mutation_rate
    rng = np.random.default_rng(int(config.seed))
    n_defending = round(config.initial_state.beta * n_agents)
    n_attacking = round(config.initial_state.alpha * n_agents)

    stride = max(1, steps // _MAX_SAMPLES)
    trajectory = [(0, n_defending / n_agents, n_attacking / n_agents)]
    next_row = stride
    sum_beta = 0
    sum_alpha = 0
    events = 0

    width = n_agents + 1
    moves: dict[int, tuple[float, float, float, float, float, float]] = {}
    draws: list[list[float]] = []
    drawn = 0

    step = 0  # the current state is the state after this step
    while True:
        key = n_defending * width + n_attacking
        move = moves.get(key)
        if move is None:
            if len(moves) >= _MOVE_TABLE_LIMIT:
                moves.clear()
            up_d, down_d = _move_rates(
                n_defending, n_agents, k0 + k1 * (n_attacking / n_agents), sel, mut
            )
            up_a, down_a = _move_rates(
                n_attacking, n_agents, g0 + g1 * (n_defending / n_agents), sel, mut
            )
            p_d = up_d + down_d
            p_a = up_a + down_a
            # Not 1 - (1-p_d)(1-p_a), which rounds to 0 when both are tiny.
            p_move = p_d + p_a - p_d * p_a
            log_stay = math.log1p(-p_move) if p_move > 0.0 else 0.0
            move = moves[key] = (up_d, p_d, up_a, p_a, p_move, log_stay)
        up_d, p_d, up_a, p_a, p_move, log_stay = move
        if p_move > 0.0:
            if drawn == len(draws):
                draws = rng.random((_DRAW_BLOCK, 4)).tolist()
                drawn = 0
            u_run, u_side, u_d, u_a = draws[drawn]
            drawn += 1
            nulls = math.log1p(-u_run) / log_stay
        else:
            nulls = math.inf
        # The current state holds over steps step..event-1; an event past
        # the last step is placed just after it.
        event = step + 1 + int(nulls) if nulls < steps - step else steps + 1
        held = event - max(step, burn_in + 1)
        if held > 0:
            sum_beta += held * n_defending
            sum_alpha += held * n_attacking
        while next_row < event:
            trajectory.append((next_row, n_defending / n_agents, n_attacking / n_agents))
            next_row += stride
        if event > steps:
            break
        if u_side < p_d / p_move:
            n_defending += 1 if u_d < up_d / p_d else -1
            if u_a < up_a:
                n_attacking += 1
            elif u_a < p_a:
                n_attacking -= 1
        else:
            n_attacking += 1 if u_a < up_a / p_a else -1
        events += 1
        step = event

    if trajectory[-1][0] != steps:
        trajectory.append((steps, n_defending / n_agents, n_attacking / n_agents))
    tally_steps = steps - burn_in
    return AbmResult(
        mean_beta=sum_beta / (tally_steps * n_agents),
        mean_alpha=sum_alpha / (tally_steps * n_agents),
        trajectory_thinned=tuple(trajectory),
        events=events,
    )
