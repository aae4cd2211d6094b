"""Evidence ratio between the null and a positive-association hypothesis
on a one-parameter toy model.

The model is u = b*v + noise with known noise precision. The null fixes
b = 0; the positive hypothesis puts a half-normal prior on b > 0 and its
marginal likelihood is integrated by adaptive quadrature after mapping
(0, inf) onto (0, 1) with b = sigma_b * tan(pi t / 2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import NumericalError, ParameterError

__all__ = [
    "ToyData",
    "HypothesisPriors",
    "marginal_likelihood_null",
    "marginal_likelihood_positive",
    "delta",
]

_LOG_TOL = 1e-8


@dataclass(frozen=True)
class ToyData:
    v: np.ndarray
    u: np.ndarray
    noise_precision: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)
        if len(v) != len(u):
            raise ParameterError("v and u must have equal length")
        if len(v) < 1:
            raise ParameterError("need at least one observation")
        if not (0 < self.noise_precision < math.inf):
            raise ParameterError(f"noise precision must be finite and > 0, got {self.noise_precision}")

    @property
    def n(self) -> int:
        return len(self.v)


@dataclass(frozen=True)
class HypothesisPriors:
    p_null: float
    sigma_b: float

    def __post_init__(self):
        if not (0.0 < self.p_null < 1.0):
            raise ParameterError(f"p_null must lie in (0, 1), got {self.p_null}")
        if not (0 < self.sigma_b < math.inf):
            raise ParameterError(f"sigma_b must be finite and > 0, got {self.sigma_b}")

    @property
    def p_pos(self) -> float:
        return 1.0 - self.p_null


def _loglik(data: ToyData, b: float) -> float:
    tau = data.noise_precision
    r = data.u - b * data.v
    return 0.5 * data.n * math.log(tau / (2.0 * math.pi)) - 0.5 * tau * float(r @ r)


def marginal_likelihood_null(data: ToyData) -> float:
    """Log likelihood of the data under b = 0 (pure noise)."""
    return _loglik(data, 0.0)


def _log_halfnormal(b: float, sigma: float) -> float:
    return 0.5 * math.log(2.0 / math.pi) - math.log(sigma) - 0.5 * (b / sigma) ** 2


_EXP_GUARD = 700.0


def marginal_likelihood_positive(data: ToyData, prior: HypothesisPriors) -> float:
    """Log of the likelihood integrated over the half-normal prior on b > 0.

    A predictor that is identically zero carries no information about b, so
    the integral collapses to the null value exactly and is returned as such.
    """
    if not np.any(data.v):
        return marginal_likelihood_null(data)
    sigma = prior.sigma_b

    def log_integrand(t: float) -> float:
        half_angle = 0.5 * math.pi * t
        b = sigma * math.tan(half_angle)
        # Jacobian of b = sigma*tan(pi t/2)
        log_jac = math.log(sigma * 0.5 * math.pi) - 2.0 * math.log(math.cos(half_angle))
        return _loglik(data, b) + _log_halfnormal(b, sigma) + log_jac

    # Locate the mass on a scan grid so the adaptive pass cannot step over
    # a likelihood spike (at large n the posterior peak is very narrow in t).
    grid = np.linspace(1e-9, 1.0 - 1e-9, 2001)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.array([log_integrand(t) for t in grid])
    finite = np.isfinite(values)
    if not finite.any():
        raise NumericalError("marginal-likelihood integrand is not finite at any grid point")
    values = np.where(finite, values, -math.inf)
    shift = float(values.max())
    live = grid[values > shift - 40.0]
    breakpoints = sorted({float(live.min()), float(grid[int(values.argmax())]), float(live.max())})

    value, abserr = quad(
        lambda t: math.exp(min(log_integrand(t) - shift, _EXP_GUARD)),
        0.0,
        1.0,
        points=breakpoints,
        epsabs=1e-14,
        epsrel=1e-11,
        limit=500,
    )
    if not (value > 0.0) or not math.isfinite(value):
        raise NumericalError(f"marginal-likelihood quadrature degenerate: value={value}")
    if abserr / value > _LOG_TOL:
        raise NumericalError(
            f"marginal-likelihood quadrature did not converge: value={value}, abserr={abserr}"
        )
    return shift + math.log(value)


def delta(log_null: float, log_pos: float, prior: HypothesisPriors) -> float:
    """Evidence ratio of the null against the positive association,
    p(data|b=0)p(b=0) / p(data|b>0)p(b>0), from the two log marginals
    (``marginal_likelihood_null`` and ``marginal_likelihood_positive``)."""
    return math.exp(log_null + math.log(prior.p_null) - log_pos - math.log(prior.p_pos))
