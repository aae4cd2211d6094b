"""Exception types shared across the package, and the four input rules
that raise ``ParameterError``: an integer of at least k, a finite positive
number, a finite 1-D array and one of a set of names. The configs, data
types and CLI checks call these rules rather than writing their own."""
import math

import numpy as np


class ParameterError(ValueError):
    """A parameter is outside its legal domain (bad precision, probability, ...)."""


class SingularDesignError(ParameterError):
    """Regression design is degenerate (constant predictor, too few points)."""


class CohortParseError(ParameterError):
    """A cohort file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InsufficientSamplesError(ParameterError):
    """Too few draws to produce a posterior summary."""


class DegenerateChainError(ParameterError):
    """Chains unusable for convergence assessment (constant, too short, too few)."""


class NumericalError(RuntimeError):
    """Base of the numerical failures, which the CLI reports with exit code 4."""


class InitializationError(NumericalError):
    """Non-finite log posterior at chain initialization; names the parameter."""

    def __init__(self, parameter: str, detail: str = ""):
        msg = f"non-finite log posterior at initialization: {parameter}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.parameter = parameter


def require_integer(value, name: str, minimum: int) -> None:
    """ParameterError unless value is an integer >= minimum; numpy integers
    count, bools and integral floats do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {name} {value}")


def require_positive(value, name: str) -> None:
    """ParameterError unless value is finite and > 0."""
    if not (0 < value < math.inf):
        raise ParameterError(f"{name} must be finite and > 0, got {value}")


def finite_vector(values, name: str) -> np.ndarray:
    """values as a float array; ParameterError unless it is 1-D and finite."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1:
        raise ParameterError(f"{name} must be 1-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ParameterError(f"{name} must be finite")
    return a


def require_choice(value, choices: tuple, name: str) -> None:
    """ParameterError unless value is one of choices."""
    if value not in choices:
        raise ParameterError(f"unknown {name} {value!r}; expected one of {choices}")
