"""Exception types shared across the package, and the one number rule.

Every number that enters the package from outside, through a library type
or an entry point, is checked here: :func:`is_real` for a real field,
:func:`is_integer` for an integer one.  A bool is neither, and a real is
finite, so NaN, an infinity and an int beyond float range are refused
too.  The game model and the integrators report a refused number as a
:class:`ParameterError` (:func:`require`), the configuration classes as a
:class:`ConfigError`; each message names the field.
"""

import math
import numbers

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


def is_real(value: object) -> bool:
    """True for a finite real number that is not a bool, else False.

    A Python or numpy int or float qualifies (any :class:`numbers.Real`);
    NaN, an infinity and an int beyond float range do not.
    """
    if type(value) is float:  # the common case, without the slower ABC check
        return math.isfinite(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False
