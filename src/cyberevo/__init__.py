"""cyberevo: evolutionary dynamics of cyber attack and defence strategies.

A two-population game between attackers (Attack / NoAttack) and defenders
(Defence / NoDefence):

- :mod:`cyberevo.game`: parameters, the population state, the four pure
  strategy pairs by label, their payoffs and welfare, fines, fitness, and
  the certified corner-bracket signs every verdict and trap reads;
- :mod:`cyberevo.dynamics`: the two-frequency selection field, a
  fixed-step integrator on the unit square and the batch basin oracle;
- :mod:`cyberevo.equilibria`: fixed points, their Jacobians and
  eigenvalues, and stability classification;
- :mod:`cyberevo.ensemble`: seeded random-game ensembles and aggregates;
- :mod:`cyberevo.abm`: an independent finite-population simulation;
- :mod:`cyberevo.phaseplot`: deterministic SVG phase portraits;
- :mod:`cyberevo.cli`: the ``cyberevo`` command.
"""

from ._version import __version__
from .abm import AbmConfig, AbmResult, simulate
from .dynamics import (
    FieldValue,
    Trajectory,
    batch_final_states,
    field_grid,
    integrate,
    replicator_field,
)
from .ensemble import (
    PAPER_B_A_UPPER,
    EnsembleSummary,
    GameRecord,
    GameTable,
    SamplerConfig,
    WelfareStats,
    correlation_matrix,
    fines_study,
    run_ensemble,
    sample_game,
    welfare_analytics,
)
from .equilibria import (
    Classification,
    EigenPair,
    EquilibriumKind,
    EquilibriumReport,
    Jacobian2,
    analyze_equilibria,
    interior_equilibrium,
    jacobian,
    stable_set,
)
from .errors import ConfigError, IntegrationError, ParameterError
from .game import (
    STRATEGY_PAIRS,
    ZERO_FINES,
    FineScenario,
    FitnessProfile,
    GameParams,
    PopulationState,
    build_payoff_matrix,
    field_coefficients,
    fitness_profile,
    social_welfare,
)
from .phaseplot import PhasePortrait, phase_portrait, render_phase_svg

__all__ = [
    "__version__",
    "AbmConfig",
    "AbmResult",
    "Classification",
    "ConfigError",
    "EigenPair",
    "EnsembleSummary",
    "EquilibriumKind",
    "EquilibriumReport",
    "FieldValue",
    "FineScenario",
    "FitnessProfile",
    "GameParams",
    "GameRecord",
    "GameTable",
    "IntegrationError",
    "Jacobian2",
    "PAPER_B_A_UPPER",
    "ParameterError",
    "PhasePortrait",
    "PopulationState",
    "STRATEGY_PAIRS",
    "SamplerConfig",
    "Trajectory",
    "WelfareStats",
    "ZERO_FINES",
    "analyze_equilibria",
    "batch_final_states",
    "build_payoff_matrix",
    "correlation_matrix",
    "field_coefficients",
    "field_grid",
    "fines_study",
    "fitness_profile",
    "integrate",
    "interior_equilibrium",
    "jacobian",
    "phase_portrait",
    "render_phase_svg",
    "replicator_field",
    "run_ensemble",
    "sample_game",
    "simulate",
    "social_welfare",
    "stable_set",
    "welfare_analytics",
]
