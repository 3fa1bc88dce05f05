"""Run configuration: JSON file merged with command-line overrides.

A config file is a JSON object whose sections mirror the library layers::

    {
      "game":     {"w": 0.98, "ca": 0.51, "cd": 0.20, "ba": 0.90,
                   "bd": 0.79, "v": 0.26, "fu": 0.0, "fs": 0.0},
      "ensemble": {"count": 100000, "master_seed": 1,
                   "b_a_upper": 1.0, "workers": 1},
      "fines":    {"levels": [0.1, 0.5]},
      "abm":      {"population_size": 1000, "selection_strength": 10.0,
                   "mutation_rate": 0.001, "steps": 2000000,
                   "burn_in": 500000, "seed": 1,
                   "initial_beta": 0.5, "initial_alpha": 0.5},
      "phase":    {"resolution": 15, "starts": [[0.05, 0.95]],
                   "trajectory_horizon": 200.0},
      "output":   {"directory": "out", "format": "csv"}
    }

Every section and key is optional; command-line flags override file values;
unknown sections or keys are rejected rather than ignored.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, fields
from typing import Any, Mapping, Optional, Sequence, Tuple

from .abm import AbmConfig
from .ensemble import SamplerConfig
from .errors import ConfigError, is_real
from .game import FineScenario, GameParams, PopulationState
from .phaseplot import phase_portrait

__all__ = ["RunConfig", "load_run_config", "DEFAULTS"]

_ABM = AbmConfig()
_SAMPLER = SamplerConfig(count=100000)
_PHASE = inspect.signature(phase_portrait).parameters

#: Defaults; the ensemble, abm and phase ones are read from what they set.
DEFAULTS: Mapping[str, Mapping[str, Any]] = {
    "game": {key: None for key in ("w", "ca", "cd", "ba", "bd", "v")}
    | {"fu": 0.0, "fs": 0.0},
    "ensemble": {
        "count": _SAMPLER.count,
        "master_seed": _SAMPLER.master_seed,
        "b_a_upper": _SAMPLER.b_a_upper,
        # Accepted and checked by run_ensemble and fines_study; no effect.
        "workers": 1,
    },
    "fines": {"levels": (0.1, 0.5)},
    "abm": {
        **{f.name: getattr(_ABM, f.name) for f in fields(AbmConfig)
           if f.name != "initial_state"},
        "initial_beta": _ABM.initial_state.beta,
        "initial_alpha": _ABM.initial_state.alpha,
    },
    "phase": {"resolution": _PHASE["resolution"].default, "starts": (),
              "trajectory_horizon": _PHASE["trajectory_horizon"].default},
    "output": {"directory": None, "format": None},
}

#: Keys whose default is an int take integers only.
_INT_KEYS = {
    (section, key)
    for section, keys in DEFAULTS.items()
    for key, value in keys.items()
    if type(value) is int
}
_STR_KEYS = {("output", "directory"), ("output", "format")}


def _number(where: str, raw: Any, expected: str) -> float:
    """``raw`` as a float if it is a finite number (not a bool); else ConfigError."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"config value {where} must {expected}")
    if not is_real(raw):
        raise ConfigError(f"config value {where} must be finite")
    return float(raw)


def _coerce(section: str, key: str, raw: Any) -> Any:
    """Validate one config value and normalize its type."""
    where = f"{section}.{key}"
    if (section, key) in _STR_KEYS:
        if raw is not None and not isinstance(raw, str):
            raise ConfigError(f"config value {where} must be a string")
        return raw
    if (section, key) == ("fines", "levels"):
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError(f"config value {where} must be a non-empty list")
        return tuple(_number(where, item, "contain numbers") for item in raw)
    if (section, key) == ("phase", "starts"):
        shape = "be a list of [beta, alpha] numbers"
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"config value {where} must {shape}")
        starts = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ConfigError(f"config value {where} must {shape}")
            starts.append(tuple(_number(where, x, shape) for x in item))
        return tuple(starts)
    value = _number(where, raw, "be a number")
    if (section, key) in _INT_KEYS:
        if not value.is_integer():
            raise ConfigError(f"config value {where} must be an integer")
        return int(raw)
    return value


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved settings for one command invocation."""

    sections: Mapping[str, Mapping[str, Any]]

    def get(self, section: str, key: str) -> Any:
        return self.sections[section][key]

    def game_params(self) -> GameParams:
        """Build the configured game, applying any fine levels.

        Raises
        ------
        ConfigError
            If one of the six required game parameters is missing.
        """
        game = self.sections["game"]
        missing = [k for k in ("w", "ca", "cd", "ba", "bd", "v") if game[k] is None]
        if missing:
            raise ConfigError(
                "missing required game parameter(s): "
                + ", ".join(f"game.{k} (--{k})" for k in missing)
            )
        params = GameParams(
            w=game["w"],
            c_a=game["ca"],
            c_d=game["cd"],
            b_a=game["ba"],
            b_d=game["bd"],
            v=game["v"],
        )
        return self.fine_scenario().apply(params)

    def fine_scenario(self) -> FineScenario:
        game = self.sections["game"]
        return FineScenario(f_u=game["fu"], f_s=game["fs"])

    def sampler_config(self) -> SamplerConfig:
        ensemble = self.sections["ensemble"]
        return SamplerConfig(
            count=ensemble["count"],
            master_seed=ensemble["master_seed"],
            scenario=self.fine_scenario(),
            b_a_upper=ensemble["b_a_upper"],
        )

    def abm_config(self) -> AbmConfig:
        abm = dict(self.sections["abm"])
        state = PopulationState(abm.pop("initial_beta"), abm.pop("initial_alpha"))
        return AbmConfig(**abm, initial_state=state)

    def phase_starts(self) -> Tuple[PopulationState, ...]:
        return tuple(
            PopulationState(beta, alpha)
            for beta, alpha in self.sections["phase"]["starts"]
        )


def _read_file(path: str) -> Mapping[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return raw


def load_run_config(
    config_path: Optional[str] = None,
    overrides: Sequence[Tuple[str, str, Any]] = (),
) -> RunConfig:
    """Resolve defaults, then the config file, then flag overrides.

    Parameters
    ----------
    config_path : str, optional
        Path to a JSON config file.
    overrides : sequence of (section, key, value)
        Command-line values; applied last.  ``None`` values are skipped so
        unset flags never mask file settings.

    Raises
    ------
    ConfigError
        On unreadable/invalid JSON, unknown sections or keys, or bad types.
    """
    sections: dict[str, dict[str, Any]] = {
        name: dict(keys) for name, keys in DEFAULTS.items()
    }
    if config_path is not None:
        for section, keys in _read_file(config_path).items():
            if section not in sections:
                raise ConfigError(f"unknown config section: {section}")
            if not isinstance(keys, dict):
                raise ConfigError(f"config section {section} must be an object")
            for key, raw in keys.items():
                if key not in sections[section]:
                    raise ConfigError(f"unknown config key: {section}.{key}")
                sections[section][key] = _coerce(section, key, raw)
    for section, key, value in overrides:
        if value is None:
            continue
        sections[section][key] = _coerce(section, key, value)
    return RunConfig(sections=sections)
