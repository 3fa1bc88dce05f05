"""Exception types shared across the package, the constraint check of the
classes that raise :class:`ParameterError`, and the integer check of the
configuration classes that raise :class:`ConfigError`."""

import numpy as np


class ParameterError(ValueError):
    """A model parameter or population state violates a declared constraint.

    The message names the violated constraint, e.g. ``0 < c_a < w``.
    """


def require(holds: bool, constraint: str, **values: object) -> None:
    """Raise :class:`ParameterError` naming ``constraint`` and ``values`` unless ``holds``."""
    if not holds:
        shown = ", ".join(f"{k}={v!r}" for k, v in values.items())
        raise ParameterError(f"constraint violated: {constraint} ({shown})")


class ConfigError(ValueError):
    """A run configuration is malformed: unknown key, bad value, or bad file."""


class IntegrationError(RuntimeError):
    """Numerical integration produced a non-finite state.

    The message names the step index at which the failure occurred.
    """


def is_integer(value: object) -> bool:
    """True for a Python or numpy integer, False for a bool or anything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
