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

Three things keep an event cheap.  The move probabilities depend only on
the state, and a run keeps returning to the few states next to a stable
corner, so a per-run table keyed by the state holds them once computed,
with the quotients the event draws are compared against.  A population's
imitation probabilities depend only on the opposite population's count,
so two per-run caches keyed by that count hold the logistic pair
(:func:`_logistic_pair`, one ``exp``), and a table fill for a new state
usually reuses both.  The table is emptied whenever it reaches
``_MOVE_TABLE_LIMIT`` entries, and both caches with it (about 1.9 MB all
told), so their memory depends on neither ``steps`` nor
``population_size``.  The four uniforms of an event are taken in order
from blocks of ``_DRAW_BLOCK`` events drawn at once; ``Generator.random``
fills float64s one generator output each, in sequence, so the stream and
every per-seed result are those of one ``rng.random(4)`` per event.

Determinism: a single seeded generator drives the whole run; identical
configurations produce identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, is_integer, is_real
from .game import GameParams, PopulationState, field_coefficients

__all__ = ["AbmConfig", "AbmResult", "simulate"]

#: Maximum number of thinned trajectory samples (plus the initial state).
_MAX_SAMPLES = 1000

#: Entries the per-run move table holds before it and the imitation caches
#: are emptied (about 1.9 MB in all).
_MOVE_TABLE_LIMIT = 4096

#: Events whose four uniforms are drawn from the generator in one call.
_DRAW_BLOCK = 256


@dataclass(frozen=True)
class AbmConfig:
    """Simulation settings.

    ``population_size`` is the number of agents in each population.  Means
    are accumulated over every step after ``burn_in``.  Defaults give a
    long, strongly selected, lightly mutating run from the square's centre.
    ``population_size``, ``steps``, ``burn_in`` and ``seed`` are integers,
    ``selection_strength`` and ``mutation_rate`` real numbers (none of them
    bools), and ``initial_state`` a :class:`PopulationState`.
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
        if not (is_real(self.selection_strength) and self.selection_strength >= 0.0):
            raise ConfigError(
                f"selection_strength must be a finite real number >= 0 "
                f"(got {self.selection_strength!r})"
            )
        if not (is_real(self.mutation_rate) and 0.0 <= self.mutation_rate <= 1.0):
            raise ConfigError(
                f"mutation_rate must be a real number in [0, 1] (got {self.mutation_rate!r})"
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
        if not isinstance(self.initial_state, PopulationState):
            raise ConfigError(
                f"initial_state must be a PopulationState (got {self.initial_state!r})"
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


def _logistic_pair(x: float) -> tuple[float, float]:
    """(1 / (1 + exp(-x)), 1 / (1 + exp(x))) from one overflow-safe ``exp``.

    Each value has the bits of the separate overflow-safe form, z / (1 + z)
    with z = exp(x) for x < 0 and 1 / (1 + exp(-x)) otherwise.
    """
    z = math.exp(-abs(x))
    if x >= 0.0:
        return 1.0 / (1.0 + z), z / (1.0 + z)
    return z / (1.0 + z), 1.0 / (1.0 + z)


def _move_rates(
    count: int, n_agents: int, half_mut: float, meet: float,
    imitate: tuple[float, float],
) -> tuple[float, float]:
    """Probabilities that one population's strategy-1 count rises or falls
    by one in a step.

    It rises when a strategy-0 focal (probability (N-n)/N) mutates to
    strategy 1 (mut/2, ``half_mut``) or, not mutating, meets a strategy-1
    peer among the N-1 others (n/(N-1), ``meet`` being (1-mut)/(N-1)) and
    imitates it (the first of ``imitate``, the logistic in sel * advantage).
    It falls by the mirror image, with the second, the logistic in
    -sel * advantage.  ``advantage`` is the payoff of strategy 1 minus
    strategy 0 against the opposite population's mixture.
    """
    imitate_up, imitate_down = imitate
    share = count / n_agents
    up = (1.0 - share) * (half_mut + meet * count * imitate_up)
    down = share * (half_mut + meet * (n_agents - count) * imitate_down)
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

    Each state's move probabilities and the quotients its event compares
    against are computed the first time the run visits it and come from a
    bounded per-run table afterwards.  The logistic pair behind each
    population's rates comes from a cache keyed by the opposite count,
    emptied with the table; the uniforms come in blocks.  None of this
    changes a value or the order of the draws, so results equal those of
    evaluating each logistic and the rates afresh and drawing
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
    # Imitation pairs of each population, keyed by the opposite count.
    imitate_d: dict[int, tuple[float, float]] = {}
    imitate_a: dict[int, tuple[float, float]] = {}
    half_mut = 0.5 * mut
    meet = (1.0 - mut) / (n_agents - 1)
    tally_from = burn_in + 1
    log1p = math.log1p
    draws: list[list[float]] = []
    drawn = 0

    step = 0  # the current state is the state after this step
    while True:
        key = n_defending * width + n_attacking
        move = moves.get(key)
        if move is None:
            if len(moves) >= _MOVE_TABLE_LIMIT:
                moves.clear()
                imitate_d.clear()
                imitate_a.clear()
            pair_d = imitate_d.get(n_attacking)
            if pair_d is None:
                pair_d = imitate_d[n_attacking] = _logistic_pair(
                    sel * (k0 + k1 * (n_attacking / n_agents)))
            pair_a = imitate_a.get(n_defending)
            if pair_a is None:
                pair_a = imitate_a[n_defending] = _logistic_pair(
                    sel * (g0 + g1 * (n_defending / n_agents)))
            up_d, down_d = _move_rates(n_defending, n_agents, half_mut, meet, pair_d)
            up_a, down_a = _move_rates(n_attacking, n_agents, half_mut, meet, pair_a)
            p_d = up_d + down_d
            p_a = up_a + down_a
            # Not 1 - (1-p_d)(1-p_a), which rounds to 0 when both are tiny.
            p_move = p_d + p_a - p_d * p_a
            # log_stay = log1p(-p_move) is < 0 for 0 < p_move < 1 (p_d and
            # p_a are at most 1/2), and 0 marks a state the run never leaves.
            # A quotient the event cannot reach (its population never
            # moves) is stored as 0.
            if p_move > 0.0:
                move = (log1p(-p_move), p_d / p_move,
                        up_d / p_d if p_d > 0.0 else 0.0, up_a, p_a,
                        up_a / p_a if p_a > 0.0 else 0.0)
            else:
                move = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            moves[key] = move
        log_stay, side_d, rise_d, up_a, p_a, rise_a = move
        if log_stay < 0.0:
            if drawn == len(draws):
                draws = rng.random((_DRAW_BLOCK, 4)).tolist()
                drawn = 0
            u_run, u_side, u_d, u_a = draws[drawn]
            drawn += 1
            nulls = log1p(-u_run) / log_stay
        else:
            nulls = math.inf
        # The current state holds over steps step..event-1; an event past
        # the last step is placed just after it.
        event = step + 1 + int(nulls) if nulls < steps - step else steps + 1
        held = event - (step if step > tally_from else tally_from)
        if held > 0:
            sum_beta += held * n_defending
            sum_alpha += held * n_attacking
        while next_row < event:
            trajectory.append((next_row, n_defending / n_agents, n_attacking / n_agents))
            next_row += stride
        if event > steps:
            break
        if u_side < side_d:
            n_defending += 1 if u_d < rise_d else -1
            if u_a < up_a:
                n_attacking += 1
            elif u_a < p_a:
                n_attacking -= 1
        else:
            n_attacking += 1 if u_a < rise_a else -1
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
