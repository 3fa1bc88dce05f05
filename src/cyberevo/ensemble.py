"""Seeded random-game ensembles and their aggregate statistics.

Games are drawn from nested uniform ranges, one independent RNG substream
per game index, so a game does not depend on the count or on the
blocking.  The map from six uniforms to a game (:func:`_nested`) and the
check of a drawn game (:func:`_valid`) are each written once, for one game
and for a block alike.  Games are drawn and analyzed in the calling
thread, in blocks of :data:`BLOCK_SIZE` consecutive indices, and joined in
index order; a block's first six uniforms are computed for all its
indices at once, bit for bit as each index's own Generator gives them.
An ensemble is held as a columnar :class:`GameTable`: per game, the six
drawn parameters, the stable set, the social welfare of the four pure
pairs and whether an interior point exists, each column one numpy array.
It is filled by the algebra of :mod:`cyberevo.game` applied to whole
columns (constraints, brackets, welfare pairs), the functions that
:class:`~cyberevo.game.GameParams` and
:func:`~cyberevo.game.social_welfare` call, and by the table verdict
:func:`~cyberevo.equilibria.stable_table`, so every row holds the bits the
scalar path gives.  The sampler checks each drawn block once, and a draw
that fails the check (odds of order 2**-53) is drawn again whole by
:func:`sample_game`, from its substream's next six uniforms.
Aggregates cover the stable-count distribution, per-kind counts/ratios,
indicator correlations, defence-intensity frequency curves,
parameter-impact histograms, fine scenarios, and social-welfare
statistics.  Every count and correlation is an integer sum over one table
of games per (parameter, stable pattern, bin), taken with one bincount
per parameter, so it does not depend on the order of the games; each
correlation is rounded to a float once.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, is_integer, is_real
from .game import (
    PARAMETERS,
    STRATEGY_PAIRS,
    FineScenario,
    GameParams,
    ZERO_FINES,
    constraints,
    welfare_pairs,
)
from .equilibria import EquilibriumKind, stable_table

__all__ = [
    "SamplerConfig",
    "GameRecord",
    "GameTable",
    "WelfareStats",
    "EnsembleSummary",
    "sample_game",
    "run_ensemble",
    "summarize",
    "correlation_matrix",
    "CORRELATION_LABELS",
    "fines_study",
    "welfare_analytics",
    "records_digest",
    "DEFAULT_MASTER_SEED",
    "PAPER_B_A_UPPER",
    "BIN_WIDTH",
    "BIN_EDGES",
    "MAX_HISTOGRAM_BINS",
    "BLOCK_SIZE",
]

#: Documented default seed for ensembles (CLI and acceptance runs).
DEFAULT_MASTER_SEED = 1

#: Attacker-benefit ceiling under which the ensemble reproduces the paper's
#: headline figures (pass it as ``SamplerConfig(b_a_upper=...)``).  The
#: paper's own range for b_a is not in the repository, so this value is
#: inferred from its headline stable share of "always defend and attack"
#: (E4), 0.398: on master seed 2 (disjoint from the default seed 1) with
#: 400,000 games, the E4 share rises with the ceiling across the bracket
#: 1.00, 1.01, ..., 2.00 (0.3426 at 1.00, 0.4681 at 2.00) and lies closest
#: to 0.398 at 1.33 (0.3974; 1.34 gives 0.3988).  Replace it with the
#: paper's stated range once that range is in the repository.
PAPER_B_A_UPPER = 1.33

_N_BINS = 10

#: All binned statistics use this bin width.
BIN_WIDTH = 1 / _N_BINS

#: (low, high) of each bin of a parameter in (0, 1]: [0, 0.1), ...,
#: [0.9, 1.0]; the last bin is closed so 1.0 lands in it.
BIN_EDGES: tuple[tuple[float, float], ...] = tuple(
    (i / _N_BINS, (i + 1) / _N_BINS) for i in range(_N_BINS)
)

#: Most bins the welfare histogram may have.  A welfare range wider than
#: this many ``BIN_WIDTH`` bins (``b_a_upper`` may reach 2**1020) is
#: binned at the smallest multiple of ``BIN_WIDTH`` that fits.
MAX_HISTOGRAM_BINS = 1000

#: Games are drawn and analyzed in blocks of this many consecutive indices;
#: the digest hashes this many rows at a time.  Each block pays a fixed
#: numpy dispatch cost (about 0.75 ms on a 2-vCPU VM), which is more than
#: half of a 1,024-game block's work.  In a sweep of block sizes, drawing
#: and analyzing cost 1.2 us a game at 1,024 rows and 0.4-0.5 us at
#: 4,096-16,384, where the cost is flat, and rose above 32,768 rows as the
#: columns leave the cache; 8,192 lies in the middle of the flat range.
BLOCK_SIZE = 8192

#: Indicator order of the correlation matrix rows/columns.
CORRELATION_LABELS: tuple[str, str, str, str] = ("E3", "E2", "E4", "total")

#: Parameters with impact histograms, in reporting order.
IMPACT_PARAMETERS: tuple[str, ...] = ("c_d", "c_a", "v", "w", "b_a", "b_d")

#: Parameters against which mean welfare is binned.
WELFARE_BIN_PARAMETERS: tuple[str, ...] = ("v", "c_a", "c_d")

#: Columns of ``GameTable.stable``.
_KINDS: tuple[EquilibriumKind, ...] = tuple(EquilibriumKind)
_E2, _E3, _E4 = 1, 2, 3

#: The kinds with defence-intensity curves, in reporting order.
_CURVE_KINDS: tuple[int, ...] = (_E3, _E2, _E4)

#: A game's stable pattern sets bit k when column k of ``GameTable.stable``
#: holds; ``_HOLDS[pattern, k]`` is that bit, for each of the 32 patterns.
_BITS = 1 << np.arange(len(_KINDS))
_HOLDS = np.arange(1 << len(_KINDS))[:, None] >> np.arange(len(_KINDS)) & 1

#: Each correlation indicator (see CORRELATION_LABELS) at each pattern, as
#: Python ints.
_INDICATORS = np.vstack([_HOLDS[:, _CURVE_KINDS].T, _HOLDS.sum(axis=1)]).astype(object)

#: Whether a pattern holds 0, 1, 2 or 3+ stable kinds, labelled as in the
#: stable-count distribution.
_SIZE_LABELS = ("0", "1", "2", "3+")
_SIZES = np.minimum(_HOLDS.sum(axis=1), 3)[:, None] == np.arange(len(_SIZE_LABELS))


@dataclass(frozen=True)
class SamplerConfig:
    """Ensemble sampling configuration.

    ``count`` and ``master_seed`` are integers (not bools).
    ``b_a_upper`` is the upper end of the attacker-benefit draw, a real
    number and not a bool; it must be at least 1 so the range
    (c_a, b_a_upper] is never empty (c_a < w <= 1).
    It sets the stable-state mix: without fines E3 is stable exactly when
    v > 1 - c_a/b_a, so with v ~ U(0,1] the E3-stable share is
    E[c_a/b_a], which falls as the ceiling rises while the E4 share
    rises (the E2 condition v < c_d/(b_d+w) does not involve b_a).  The
    default 1.0 does not reproduce the paper: E3, not the headline E4, is
    then the most frequent stable state.
    :data:`PAPER_B_A_UPPER` is the ceiling inferred from the paper.
    The ceiling plus the scenario's two fines may not pass 2**1020.
    """

    count: int
    master_seed: int = DEFAULT_MASTER_SEED
    scenario: FineScenario = ZERO_FINES
    b_a_upper: float = 1.0

    def __post_init__(self) -> None:
        if not is_integer(self.count) or self.count < 1:
            raise ConfigError(f"count must be an integer >= 1 (got {self.count!r})")
        if not is_integer(self.master_seed) or not 0 <= self.master_seed < 2**64:
            raise ConfigError(
                f"master_seed must be a 64-bit unsigned integer (got {self.master_seed!r})"
            )
        # Welfare lies within b_a_upper + f_s + f_u + 3 of 0 (see
        # game.payoff_pairs); up to 2**1020 (about 1.1e307) it and b_a stay
        # finite over BIN_WIDTH, so every bin and histogram edge is finite.
        # The check runs in float64, where a float32's 2**1020 overflows.
        fines = float(self.scenario.f_s) + float(self.scenario.f_u)
        if not (is_real(self.b_a_upper) and 1.0 <= float(self.b_a_upper) <= 2.0**1020 - fines):
            raise ConfigError(
                f"b_a_upper must be >= 1 and b_a_upper + f_s + f_u <= 2**1020 "
                f"(got b_a_upper={self.b_a_upper!r}, f_s + f_u={fines!r})"
            )


@dataclass(frozen=True)
class GameRecord:
    """One sampled game with its stability and welfare analysis."""

    index: int
    params: GameParams
    stable_kinds: frozenset[EquilibriumKind]
    welfare: dict[str, float]
    interior_present: bool


#: The array attributes of a GameTable, in constructor order.
_COLUMNS = ("indices", "params", "stable", "welfare", "interior")


@dataclass(frozen=True, eq=False)
class GameTable:
    """Analyzed games as columns, one row per game.

    ``indices`` (n,) int64 game indices; ``params`` (n, 6) float64 in
    :data:`~cyberevo.game.PARAMETERS` order; ``stable`` (n, 5) bool, one
    column per :class:`EquilibriumKind` E1..E5; ``welfare`` (n, 4) float64
    in ``STRATEGY_PAIRS`` order; ``interior`` (n,) bool.  ``fines`` holds
    the (fine_successful, fine_unsuccessful) that every row shares, so row
    ``i`` is the game ``GameParams(*params[i].tolist(), *fines)``.

    Two tables are equal when their columns and fines are.
    """

    indices: np.ndarray
    params: np.ndarray
    stable: np.ndarray
    welfare: np.ndarray
    interior: np.ndarray
    fines: tuple[float, float]

    @classmethod
    def from_records(cls, records: GameTable | Sequence[GameRecord]) -> GameTable:
        """Columns of ``records`` (a table is returned as it is).

        The records must share their fines.
        """
        if isinstance(records, GameTable):
            return records
        fines = {
            (float(r.params.fine_successful), float(r.params.fine_unsuccessful))
            for r in records
        }
        if len(fines) > 1:
            raise ConfigError("records with different fines in one table")
        n = len(records)
        return cls(
            indices=np.array([r.index for r in records], dtype=np.int64),
            params=np.array(
                [[getattr(r.params, name) for name in PARAMETERS] for r in records],
                dtype=float,
            ).reshape(n, len(PARAMETERS)),
            stable=np.array(
                [[kind in r.stable_kinds for kind in _KINDS] for r in records],
                dtype=bool,
            ).reshape(n, len(_KINDS)),
            welfare=np.array(
                [[r.welfare[pair] for pair in STRATEGY_PAIRS] for r in records],
                dtype=float,
            ).reshape(n, len(STRATEGY_PAIRS)),
            interior=np.array([r.interior_present for r in records], dtype=bool),
            fines=fines.pop() if fines else (0.0, 0.0),
        )

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameTable):
            return NotImplemented
        return self.fines == other.fines and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _COLUMNS
        )


@dataclass(frozen=True)
class WelfareStats:
    """Social-welfare aggregates over an ensemble.

    ``histogram_*`` cover all (game, pair) welfare samples with bin width
    0.1 over the observed range, or the smallest multiple of 0.1 that needs
    at most :data:`MAX_HISTOGRAM_BINS` bins; ``binned_mean`` maps each of
    v, c_a, c_d to ten per-bin mean welfare values (NaN for empty bins).
    """

    mean_by_pair: dict[str, float]
    histogram_edges: tuple[float, ...]
    histogram_counts: tuple[int, ...]
    binned_mean: dict[str, tuple[float, ...]]


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregates over one ensemble run.

    ``kind_ratios`` normalizes kind_counts by the number of (game,
    stable-kind) pairs, so a two-stable game contributes to each of its
    kinds once and the ratios sum to 1 (multi-count normalization).
    ``correlation`` rows/columns follow :data:`CORRELATION_LABELS`; entries
    are NaN where an indicator has zero variance (undefined, not 0).
    Every count and correlation is an integer sum over one table of games
    per (parameter, stable pattern, bin), and each correlation is rounded
    to a float once.
    """

    config: SamplerConfig
    stable_count_distribution: dict[str, int]
    kind_counts: dict[EquilibriumKind, int]
    kind_ratios: dict[EquilibriumKind, float]
    correlation_labels: tuple[str, ...]
    correlation: tuple[tuple[float, ...], ...]
    v_binned_kind_frequency: dict[EquilibriumKind, tuple[int, ...]]
    param_binned_stability: dict[str, tuple[int, ...]]
    welfare_stats: WelfareStats
    records_digest: str


def _nested(uniforms, upper: float):
    """The six drawn parameters, in ``PARAMETERS`` order, at six uniforms in [0, 1).

    ``uniforms`` is one game's six floats or a block's six columns, as the
    algebra of :mod:`cyberevo.game` takes one game or columns alike.  This
    is the sampling measure: w ~ U(0,1]; c_a ~ U(0,w); c_d ~ U(0,w);
    b_a ~ U(c_a, upper]; b_d ~ U(c_d, w]; v ~ U(0,1].  Every parameter
    constraint holds unless a value lands on an excluded endpoint, through
    a uniform of 0 for c_a or c_d or through rounding (see :func:`_valid`).
    """
    w = 1.0 - uniforms[0]
    c_a = w * uniforms[1]
    c_d = w * uniforms[2]
    b_a = upper - (upper - c_a) * uniforms[3]
    b_d = w - (w - c_d) * uniforms[4]
    v = 1.0 - uniforms[5]
    return w, c_a, c_d, b_a, b_d, v


def _valid(config: SamplerConfig, params):
    """Whether drawn parameters are a game of ``config``'s measure.

    ``params`` is one game's six floats or a block's six columns, and the
    verdict a bool or a boolean column: every
    :func:`~cyberevo.game.constraints` with the configured fines, and
    b_a <= b_a_upper.
    """
    valid = params[PARAMETERS.index("b_a")] <= config.b_a_upper
    for _, holds in constraints(*params, config.scenario.f_s, config.scenario.f_u):
        valid &= holds
    return valid


def sample_game(config: SamplerConfig, index: int) -> GameParams:
    """Draw one game from the substream for ``index``.

    The game is :func:`_nested` at the substream's first six uniforms, with
    fines from the configured scenario.  ``b_a_upper`` is the only ceiling
    that no parameter constraint fixes, and it decides whether E3 or E4 is
    the most frequent stable state (see :class:`SamplerConfig`); the
    default 1.0 does not reproduce the paper's headline figures.  The
    substream is derived from (master_seed, index), so any game is
    reproducible in isolation.

    In the astronomically rare case where a value lands exactly on an
    excluded endpoint (:func:`_valid` fails), the whole game is drawn again
    from the substream's next six uniforms; no value of the failed draw is
    kept.
    """
    if index < 0:
        raise ConfigError(f"index must be >= 0 (got {index!r})")
    rng = np.random.default_rng([config.master_seed, index])
    while True:
        params = _nested(rng.random(6).tolist(), config.b_a_upper)
        if _valid(config, params):
            return GameParams(*params, config.scenario.f_s, config.scenario.f_u)


# numpy's SeedSequence hash and mix constants (numpy/random/bit_generator.pyx)
# and the PCG64 multiplier as (high, low) 64-bit limbs (O'Neill 2014).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_MASK32 = 0xFFFFFFFF
_LOW32 = np.uint64(_MASK32)


def _uniforms(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The first six uniforms of each substream ``start..stop-1``.

    Row ``i - start`` is bit for bit ``np.random.default_rng([master_seed,
    i]).random(6)``, computed for the whole window at once without building
    a Generator: numpy's ``SeedSequence`` hashes the entropy words of
    (master_seed, i) into four 64-bit words, which seed PCG64 (XSL-RR
    128/64; O'Neill, "PCG: A Family of Simple Fast Space-Efficient
    Statistically Good Algorithms for Random Number Generation", 2014), and
    each draw is the top 53 bits of one output.  Both are fixed integer
    algorithms, evaluated here on uint32 and uint64 columns.
    ``SeedSequence`` splits an integer into one uint32 word per started 32
    bits, so the window is cut at every multiple of 2**32: within a piece
    every index has the same words but the lowest.
    """
    out = np.empty((stop - start, 6))
    index = start
    while index < stop:
        high = index >> 32
        end = min(stop, (high + 1) << 32)
        n = end - index
        entropy = [np.full(n, word, np.uint32) for word in _words(master_seed)]
        entropy.append(np.arange(n, dtype=np.uint32) + np.uint32(index & _MASK32))
        entropy += [np.full(n, word, np.uint32) for word in _words(high) if high]
        out[index - start : end - start] = _pcg64_doubles(_seed_state(entropy), 6)
        index = end
    return out


def _words(n: int) -> list[int]:
    """The uint32 words of ``n``, least significant first, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(hash_const: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 columns, from ``hash_const`` on.

    The hash constant it advances is the same for every column, so it is
    held as a Python int.
    """

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> np.uint32(16)

    return hashmix


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)``, per column.

    ``entropy`` holds each uint32 word as a column; the result holds each
    uint64 state word as a column.
    """

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> np.uint32(16)

    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    with np.errstate(over="ignore"):  # uint32 arithmetic wraps by design
        pool = [
            hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)
        ]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state(4, np.uint64) hashes the pool, cycled, into eight
        # uint32 words and pairs them little-endian.
        draw = _hasher(_INIT_B, _MULT_B)
        state = [draw(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [state[i] | state[i + 1] << np.uint64(32) for i in range(0, 8, 2)]


def _pcg64_doubles(seed: list[np.ndarray], n_draws: int) -> np.ndarray:
    """The first ``n_draws`` doubles of PCG64 seeded with ``seed``, per column.

    ``seed`` is the four uint64 words ``SeedSequence.generate_state`` gives:
    the initial state and the stream, each as (high, low).  The 128-bit LCG
    state is held as two uint64 limbs.
    """
    state_hi, state_lo, seq_hi, seq_lo = seed
    inc_hi = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << np.uint64(1) | np.uint64(1)
    mult_hi, mult_lo = _PCG_MULT
    b1, b0 = mult_lo >> np.uint64(32), mult_lo & _LOW32

    def step(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (hi, lo) * mult + inc mod 2**128; the high word of lo * mult_lo
        # comes from its four 32-bit partial products.
        a1, a0 = lo >> np.uint64(32), lo & _LOW32
        cross_a, cross_b = a1 * b0, a0 * b1
        mid = (a0 * b0 >> np.uint64(32)) + (cross_a & _LOW32) + (cross_b & _LOW32)
        carry_hi = (
            a1 * b1 + (cross_a >> np.uint64(32)) + (cross_b >> np.uint64(32))
            + (mid >> np.uint64(32))
        )
        new_lo = lo * mult_lo + inc_lo
        new_hi = carry_hi + lo * mult_hi + hi * mult_lo + inc_hi
        return new_hi + (new_lo < inc_lo), new_lo

    out = np.empty((len(state_hi), n_draws))
    with np.errstate(over="ignore"):  # uint64 arithmetic wraps by design
        # Seeding steps from state 0, which gives inc, adds the initial
        # state and steps again.
        lo = inc_lo + state_lo
        hi, lo = step(inc_hi + state_hi + (lo < state_lo), lo)
        for draw in range(n_draws):
            hi, lo = step(hi, lo)
            # XSL-RR: the xor of the halves rotated right by the top 6 bits.
            xored, rot = hi ^ lo, hi >> np.uint64(58)
            word = xored >> rot | xored << (-rot & np.uint64(63))
            out[:, draw] = (word >> np.uint64(11)) * 2.0**-53
    return out


def _draw(config: SamplerConfig, start: int, stop: int) -> np.ndarray:
    """Games ``start..stop-1`` of ``config``'s measure, one row of six parameters each.

    Each row is :func:`_nested` at its substream's first six uniforms, so it
    holds the bits :func:`sample_game` gives for that index: a row that
    fails :func:`_valid` (a draw that hit an excluded endpoint) is drawn
    again whole by :func:`sample_game`.
    """
    u = _uniforms(config.master_seed, start, stop)
    params = np.stack(_nested(u.T, config.b_a_upper), axis=1)
    for row in np.flatnonzero(~_valid(config, params.T)).tolist():
        params[row] = sample_game(config, start + row).as_tuple()[:6]
    return params


def _analyze(params: np.ndarray, fines: tuple[float, float], start: int) -> GameTable:
    """Classify and evaluate games ``start..start+n-1`` under ``fines``.

    ``params`` holds six drawn parameters per row and ``fines`` is
    (fine_successful, fine_unsuccessful).  The scalar functions' algebra is
    applied to columns, so each row holds the bits ``stable_set``,
    ``social_welfare`` and ``interior_equilibrium`` give for that game.
    """
    game = (*params.T, *fines)
    stable, interior = stable_table(*game)
    welfare = np.empty((len(params), len(STRATEGY_PAIRS)))
    for column, values in enumerate(welfare_pairs(*game)):
        welfare[:, column] = values
    return GameTable(
        indices=np.arange(start, start + len(params), dtype=np.int64),
        params=params,
        stable=stable,
        welfare=welfare,
        interior=interior,
        fines=fines,
    )


def _run(configs: Sequence[SamplerConfig]) -> list[GameTable]:
    """The table of each config, on shared draws.

    The configs differ only in their fine scenario, which no drawn
    parameter's check depends on.  Each block of :data:`BLOCK_SIZE` game
    indices is drawn and checked once and analyzed per config in the
    calling thread, and the blocks are joined in index order.
    """
    count = configs[0].count
    fines = [(float(c.scenario.f_s), float(c.scenario.f_u)) for c in configs]
    blocks = []
    for start in range(0, count, BLOCK_SIZE):
        params = _draw(configs[0], start, min(start + BLOCK_SIZE, count))
        blocks.append([_analyze(params, f, start) for f in fines])
    return [_concat(parts) for parts in zip(*blocks)]


def _check_workers(workers: int) -> None:
    """Validate a ``workers`` argument, which has no effect."""
    if not is_integer(workers) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1 (got {workers!r})")


def _concat(tables: Sequence[GameTable]) -> GameTable:
    if len(tables) == 1:
        return tables[0]
    return GameTable(
        *(np.concatenate([getattr(t, name) for t in tables]) for name in _COLUMNS),
        fines=tables[0].fines,
    )


def run_ensemble(
    config: SamplerConfig, workers: int = 1
) -> tuple[GameTable, EnsembleSummary]:
    """Sample, analyze, and summarize ``config.count`` games.

    Fixed blocks of game indices are drawn, analyzed, joined and reduced
    in index order, in the calling thread; no thread or process is
    started.  ``workers`` has no effect: it is accepted so that existing
    callers keep working, and must be an integer >= 1, else
    :class:`ConfigError`.
    """
    _check_workers(workers)
    (table,) = _run([config])
    return table, _summary(table, config)


def _bincount(
    bins: np.ndarray, weights: np.ndarray | None = None, size: int = _N_BINS
):
    # bincount adds weights one at a time in row order, the order in which
    # a Python loop over the games would add them.
    return np.bincount(bins, weights=weights, minlength=size).tolist()


def _bins(params: np.ndarray) -> np.ndarray:
    """Bin index of each parameter, over :data:`BIN_EDGES`, as (n, 6) int64."""
    return np.minimum(params / BIN_WIDTH, _N_BINS - 1.0).astype(np.int64)


def _pearson(c: int, spread: int) -> float:
    """c / sqrt(spread) within one ulp, for integers with c * c <= spread.

    The integer square root keeps at least 63 bits, and Python rounds the
    one division of two ints correctly, so c * c == spread gives exactly
    +-1.0.  A zero spread gives the math.nan singleton, so equal runs give
    equal tuples.
    """
    if not spread:
        return math.nan
    shift = 64 + max(0, spread.bit_length() - (c * c).bit_length()) // 2
    return math.copysign(math.isqrt((c * c << 2 * shift) // spread) / (1 << shift), c)


def _correlation(patterns: Sequence[int]) -> tuple[tuple[float, ...], ...]:
    """Pearson correlations of the indicators (see correlation_matrix).

    ``patterns`` holds the games per stable pattern.  The moments
    n*sum(xy) - sum(x)*sum(y) are Python ints, exact at any count, so the
    matrix is exactly symmetric with a diagonal of 1.0 and no entry above 1
    in magnitude.
    """
    counts = np.array(patterns).astype(object)
    sums = _INDICATORS @ counts
    products = (_INDICATORS * counts) @ _INDICATORS.T
    moments = sum(counts) * products - np.outer(sums, sums)
    variances = moments.diagonal().tolist()
    return tuple(
        tuple(_pearson(c, a * b) for c, b in zip(row, variances))
        for row, a in zip(moments.tolist(), variances)
    )


def _counts(stable: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Games per (parameter, stable pattern, bin), a (6, 32, 10) int64 table.

    ``bins`` is :func:`_bins` of the same games.  It takes one bincount
    per parameter of each game's pattern and bin; tables of disjoint games
    add.
    """
    cells = (stable @ _BITS) * _N_BINS
    return np.array(
        [np.bincount(cells + b, minlength=len(_HOLDS) * _N_BINS) for b in bins.T]
    ).reshape(len(PARAMETERS), len(_HOLDS), _N_BINS)


def _summary(table: GameTable, config: SamplerConfig) -> EnsembleSummary:
    """The one reduction behind every summary.

    Every count field is a sum over the :func:`_counts` table through
    ``_HOLDS``, and the correlation is a function of its pattern totals.
    """
    bins = _bins(table.params)
    counts = _counts(table.stable, bins)
    # Games per (stable kind, bin), for each parameter.
    by_kind = dict(zip(PARAMETERS, (_HOLDS.T @ counts).tolist()))
    patterns = counts[0].sum(axis=1)
    kind_counts = dict(zip(_KINDS, (patterns @ _HOLDS).tolist()))
    total = sum(kind_counts.values())
    return EnsembleSummary(
        config=config,
        stable_count_distribution=dict(zip(_SIZE_LABELS, (patterns @ _SIZES).tolist())),
        kind_counts=kind_counts,
        kind_ratios={k: c / total if total else 0.0 for k, c in kind_counts.items()},
        correlation_labels=CORRELATION_LABELS,
        correlation=_correlation(patterns),
        v_binned_kind_frequency={_KINDS[k]: tuple(by_kind["v"][k]) for k in _CURVE_KINDS},
        param_binned_stability={
            name: tuple(by_kind[name][_E4]) for name in IMPACT_PARAMETERS
        },
        welfare_stats=_welfare_stats(table.welfare, bins),
        records_digest=records_digest(table),
    )


def _grid(low: float, high: float, multiple: int) -> tuple[float, float, int]:
    """Width, first edge and bin count of the grid of ``multiple`` bin widths.

    Its edges are multiples of the width and cover [low, high] with at
    least one bin.
    """
    width = BIN_WIDTH * multiple
    lo = math.floor(low / width) * width
    hi = math.ceil(high / width) * width
    if hi <= lo:
        hi = lo + width
    return width, lo, round((hi - lo) / width)


def _histogram_grid(low: float, high: float) -> tuple[float, float, int]:
    """Bin width, first edge and bin count of the welfare histogram.

    The grid covers [low, high] and 0.0, which every ensemble's welfare
    holds: the (NoDefence, NoAttack) pair's.  Its width is the smallest
    multiple of ``BIN_WIDTH`` giving at most ``MAX_HISTOGRAM_BINS`` bins.
    With 0 in the range, both ends' bin indices move toward 0 as the width
    grows, so the count never rises with the multiple: the multiple is
    doubled until it fits, then bisected.  Both ends are finite over
    ``BIN_WIDTH``, as :class:`SamplerConfig`'s bound keeps welfare.
    """
    low, high = min(low, 0.0), max(high, 0.0)
    misses, fits = 0, 1
    while _grid(low, high, fits)[2] > MAX_HISTOGRAM_BINS:
        misses, fits = fits, 2 * fits
    while fits - misses > 1:
        middle = (misses + fits) // 2
        if _grid(low, high, middle)[2] > MAX_HISTOGRAM_BINS:
            misses = middle
        else:
            fits = middle
    return _grid(low, high, fits)


def _welfare_stats(welfare: np.ndarray, bins: np.ndarray) -> WelfareStats:
    n, n_pairs = welfare.shape
    if not n:
        undefined = (math.nan,) * _N_BINS
        return WelfareStats(dict.fromkeys(STRATEGY_PAIRS, math.nan), (), (),
                            dict.fromkeys(WELFARE_BIN_PARAMETERS, undefined))
    samples = welfare.ravel()  # game-major: game 0's four pairs, then game 1's
    low, high = float(samples.min()), float(samples.max())
    # No sum of samples passes len(samples) * peak in magnitude.  From
    # 2**1023 on, the samples are summed scaled by a power of two, so no sum
    # overflows; below it the scale is 1 and no copy is made.
    peak, scale, weights = max(-low, high), 1.0, samples
    if len(samples) * peak >= 2.0**1023:
        scale = 2.0 ** (1022 - math.frexp(peak)[1] - len(samples).bit_length())
        weights = samples * scale
    sums = _bincount(np.tile(np.arange(n_pairs), n), weights, n_pairs)
    width, lo, n_bins = _histogram_grid(low, high)
    # Truncation toward zero, as int() does; every sample is >= lo up to
    # rounding, so no quotient reaches -1.
    positions = ((samples - lo) / width).astype(np.int64)
    binned_mean = {}
    for name in WELFARE_BIN_PARAMETERS:
        per_sample = np.repeat(bins[:, PARAMETERS.index(name)], n_pairs)
        binned_mean[name] = tuple(
            total / size / scale if size else math.nan
            for total, size in zip(_bincount(per_sample, weights), _bincount(per_sample))
        )
    return WelfareStats(
        mean_by_pair={p: sums[i] / n / scale for i, p in enumerate(STRATEGY_PAIRS)},
        histogram_edges=tuple(lo + width * i for i in range(n_bins + 1)),
        histogram_counts=tuple(_bincount(np.minimum(positions, n_bins - 1), size=n_bins)),
        binned_mean=binned_mean,
    )


def summarize(
    records: GameTable | Sequence[GameRecord], config: SamplerConfig
) -> EnsembleSummary:
    """Reduce an analyzed table, or a sequence of records, to an :class:`EnsembleSummary`."""
    return _summary(GameTable.from_records(records), config)


def correlation_matrix(records: GameTable | Sequence[GameRecord]) -> np.ndarray:
    """Pearson correlations of per-game stability indicators.

    Columns follow :data:`CORRELATION_LABELS`: 1{E3 stable}, 1{E2 stable},
    1{E4 stable}, and the per-game count of stable kinds.  Any column with
    zero variance yields NaN entries (undefined correlation, not 0).  The
    moments are integer sums over the games per stable pattern, and each
    entry is rounded to a float once, within one ulp of the exact value:
    the diagonal is exactly 1.0 and the matrix exactly symmetric.
    """
    stable = GameTable.from_records(records).stable
    return np.array(_correlation(np.bincount(stable @ _BITS, minlength=len(_HOLDS))))


def welfare_analytics(records: GameTable | Sequence[GameRecord]) -> WelfareStats:
    """Per-pair means, all-sample histogram, and parameter-binned means."""
    table = GameTable.from_records(records)
    return _welfare_stats(table.welfare, _bins(table.params))


def fines_study(
    count: int,
    master_seed: int,
    levels: Iterable[float],
    workers: int = 1,
    b_a_upper: float = 1.0,
) -> dict[float, EnsembleSummary]:
    """Summarize one ensemble per fine level on identical parameter draws.

    Each level runs with FineScenario(f_u=level, f_s=level) and the
    attacker-benefit ceiling ``b_a_upper`` (see :class:`SamplerConfig`).
    Fines are applied after the parameter draw, so the games are drawn
    once and classified again per level; differences between levels are
    attributable to the fines alone.  Each level is a finite real number
    >= 0, not a bool, and may be given once.  Every
    level runs in the calling thread.  ``workers`` has no effect: it is
    accepted so that existing callers keep working, and must be an integer
    >= 1, else :class:`ConfigError`.
    """
    _check_workers(workers)
    configs = []
    for level in levels:
        if not (is_real(level) and level >= 0):
            raise ConfigError(f"fine level must be a finite real number >= 0 (got {level!r})")
        if any(config.scenario.f_u == level for config in configs):
            raise ConfigError(f"fine level {level!r} is repeated")
        configs.append(SamplerConfig(
            count=count,
            master_seed=master_seed,
            scenario=FineScenario(f_u=float(level), f_s=float(level)),
            b_a_upper=b_a_upper,
        ))
    if not configs:
        return {}
    return {
        config.scenario.f_u: _summary(table, config)
        for config, table in zip(configs, _run(configs))
    }


#: One :func:`records_digest` row: fixed width, little-endian, unpadded.
_DIGEST_ROW = np.dtype([
    ("indices", "<i8"),
    ("params", "<f8", len(PARAMETERS)),
    ("fines", "<f8", 2),
    ("stable", "u1", len(_KINDS)),
    ("welfare", "<f8", len(STRATEGY_PAIRS)),
    ("interior", "u1"),
])


def records_digest(records: GameTable | Sequence[GameRecord]) -> str:
    """SHA-256 over one fixed binary row per game, in table order.

    A row is 110 bytes, each field little-endian with no padding: the game
    index (int64); the six drawn parameters in
    :data:`~cyberevo.game.PARAMETERS` order and the two fines
    (fine_successful, fine_unsuccessful), float64; the stable flags of
    E1..E5, one byte each (0 or 1); the four welfare values in
    ``STRATEGY_PAIRS`` order, float64; the interior flag, one byte.  The
    drawn values already depend on the sampler's ``b_a_upper``, so the
    digest covers it through them.  Two tables have equal digests exactly
    when their rows are equal bit for bit (so -0.0 differs from 0.0).
    Rows are hashed :data:`BLOCK_SIZE` at a time, and the digest does not
    depend on how the games were blocked.
    """
    table = GameTable.from_records(records)
    hasher = hashlib.sha256()
    for start in range(0, len(table), BLOCK_SIZE):
        rows = slice(start, start + BLOCK_SIZE)
        block = np.empty(len(table.indices[rows]), _DIGEST_ROW)
        block["fines"] = table.fines
        for name in _COLUMNS:
            block[name] = getattr(table, name)[rows]
        hasher.update(block)
    return hasher.hexdigest()
