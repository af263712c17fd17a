"""Exception and warning types, and the one checker of each kind of argument.

A bad size or shape raises DimensionError; every other bad value (a count,
a seed, rho, a tolerance or step, a non-finite entry) raises ParameterError.
NaN fails every range check, and a float is never an integer, not even 8.0.
"""

import math
import operator

import numpy as np


class BlindcalError(Exception):
    """Base class for every error raised by this library."""


class DimensionError(BlindcalError, ValueError):
    """Array shapes disagree with the problem dimensions (n, m, p)."""


class ParameterError(BlindcalError, ValueError):
    """A numeric parameter violates its admissible range."""


class FormatError(BlindcalError, ValueError):
    """A file does not conform to the expected on-disk format."""


class DivergenceError(BlindcalError, RuntimeError):
    """The descent produced a non-finite objective value."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class SingularityError(BlindcalError, RuntimeError):
    """A linear system is rank deficient or effectively so."""


class TheoryRangeWarning(UserWarning):
    """Parameters fall outside the range covered by the convergence theory."""


def _integer(error: type, positive: bool):
    """A checker returning value as an int (numpy integers too), else raising error."""
    kind = "a positive integer" if positive else "an integer"

    def check(value, name: str) -> int:
        try:
            number = operator.index(value)
        except TypeError:
            number = None
        if number is None or (positive and number < 1):
            raise error(f"{name} must be {kind}, got {value!r}")
        return number
    return check


check_size = _integer(DimensionError, positive=True)  # n, m, p, vector lengths
check_count = _integer(ParameterError, positive=True)  # trials, workers, iterations
check_seed = _integer(ParameterError, positive=False)  # seeds and seed label indices


def check_rho(value, name: str = "rho"):
    """A gain deviation bound in [0, 1), returned as given."""
    if not 0.0 <= value < 1.0:
        raise ParameterError(f"{name} must lie in [0, 1), got {value!r}")
    return value


def check_positive(value, name: str):
    """A finite positive real (a tolerance, a step), returned as given."""
    if value is None or not 0.0 < value < math.inf:
        raise ParameterError(f"{name} must be finite and positive, got {value!r}")
    return value


def check_array(value, shape: tuple, name: str, finite: bool = False) -> np.ndarray:
    """value as a float array of the given shape, and finite if asked."""
    array = np.asarray(value, dtype=float)
    if array.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {array.shape}")
    if finite and not np.isfinite(array).all():
        raise ParameterError(f"{name} contains non-finite entries")
    return array
