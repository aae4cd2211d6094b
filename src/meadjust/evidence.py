"""Evidence ratio between the null and a positive-association hypothesis
on a one-parameter toy model.

The model is u = b*v + noise with known noise precision. The null fixes
b = 0; the positive hypothesis puts a half-normal prior on b > 0, whose
marginal likelihood is a Gaussian integral with an exact answer:

    log p(u | b > 0) = log p(u | b = 0) + log 2 - log sigma_b - log(P) / 2
                       + h^2 / (2 P) + log Phi(h / sqrt(P)),

with P = tau v.v + sigma_b^-2, h = tau u.v, tau the noise precision and
Phi the standard normal CDF. log Phi is computed here from ``math.erfc``
and, far in the lower tail, its asymptotic series (``_log_ndtr``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, finite_vector, require_positive

__all__ = [
    "ToyData",
    "HypothesisPriors",
    "marginal_likelihood_null",
    "marginal_likelihood_positive",
    "delta",
]

@dataclass(frozen=True)
class ToyData:
    v: np.ndarray
    u: np.ndarray
    noise_precision: float

    def __post_init__(self):
        v = finite_vector(self.v, "v")
        u = finite_vector(self.u, "u")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "u", u)
        if len(v) != len(u):
            raise ParameterError("v and u must have equal length")
        if len(v) < 1:
            raise ParameterError("need at least one observation")
        require_positive(self.noise_precision, "noise precision")

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
        require_positive(self.sigma_b, "sigma_b")

    @property
    def p_pos(self) -> float:
        return 1.0 - self.p_null


def marginal_likelihood_null(data: ToyData) -> float:
    """Log likelihood of the data under b = 0 (pure noise)."""
    tau = data.noise_precision
    # sqrt(tau) u rather than tau (u.u): u.u overflows for a tiny tau whose
    # noise is large while tau (u.u) stays near n; and log tau - log 2 pi,
    # as tau / 2 pi underflows to 0 at the smallest subnormal tau
    scaled = math.sqrt(tau) * data.u
    return 0.5 * data.n * (math.log(tau) - math.log(2.0 * math.pi)) - 0.5 * float(scaled @ scaled)


_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_ndtr(t: float) -> float:
    """log Phi(t) for a float t, where Phi is the standard normal CDF.

    From the complementary error function, as log1p(-Phi(-t)) above 0 and
    log(Phi(t)) down to -20. Below -20, where erfc is about to underflow,
    from the asymptotic (Mills ratio) series
    Phi(t) = phi(t) / -t * (1 - 1/t^2 + 3/t^4 - 15/t^6 + ...),
    summed until its terms stop mattering.
    """
    if t > 0.0:
        return math.log1p(-0.5 * math.erfc(t / _SQRT2))
    if t > -20.0:
        return math.log(0.5 * math.erfc(-t / _SQRT2))
    inv_t2 = 1.0 / (t * t)
    series, term, k = 0.0, 1.0, 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * inv_t2
        series += term
        k += 1
    return -0.5 * t * t - math.log(-t) - _LOG_SQRT_2PI + math.log1p(series)


def marginal_likelihood_positive(data: ToyData, prior: HypothesisPriors) -> float:
    """Log of the likelihood integrated over the half-normal prior on b > 0,
    in closed form (see the module docstring).

    A predictor that is identically zero carries no information about b, so
    the integral collapses to the null value exactly and is returned as such.
    """
    if not np.any(data.v):
        return marginal_likelihood_null(data)
    tau = data.noise_precision
    log_sigma = math.log(prior.sigma_b)
    # P and h from logs and the predictor scaled to max |v| = 1: sigma_b**-2
    # and v.v each leave the float range at an extreme that is still valid
    scale = float(np.max(np.abs(data.v)))
    v, log_scale = data.v / scale, math.log(scale)
    log_p = float(np.logaddexp(math.log(tau) + math.log(float(v @ v)) + 2.0 * log_scale, -2.0 * log_sigma))
    t = tau * float(data.u @ v) * math.exp(log_scale - 0.5 * log_p)  # h / sqrt(P)
    log_ratio = math.log(2.0) - log_sigma - 0.5 * log_p + 0.5 * t * t + _log_ndtr(t)
    return marginal_likelihood_null(data) + log_ratio


def delta(log_null: float, log_pos: float, prior: HypothesisPriors) -> float:
    """Evidence ratio of the null against the positive association,
    p(data|b=0)p(b=0) / p(data|b>0)p(b>0), from the two log marginals
    (``marginal_likelihood_null`` and ``marginal_likelihood_positive``);
    ``inf`` when the ratio lies beyond the float range."""
    try:
        return math.exp(log_null + math.log(prior.p_null) - log_pos - math.log(prior.p_pos))
    except OverflowError:
        return math.inf
