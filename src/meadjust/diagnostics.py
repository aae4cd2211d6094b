"""Convergence assessment and posterior summarization.

R-hat is the classic potential scale reduction factor: sqrt of the pooled
variance estimate over the mean within-chain variance, with the (n-1)/n
within-chain correction. Summaries are means with equal-tailed 2.5%/97.5%
percentiles by linear interpolation of order statistics (type-7), so
implementations agree to machine precision on identical samples.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChainError, InsufficientSamplesError

__all__ = ["PosteriorSummary", "RhatReport", "rhat", "summarize", "transform_summary", "RHAT_GATE"]

RHAT_GATE = 1.1
MIN_CHAINS = 2  # R-hat compares between- and within-chain variance
MIN_CHAIN_LENGTH = 10  # draws per chain for R-hat
MIN_DRAWS = 100  # pooled draws for a 95% interval


@dataclass(frozen=True)
class PosteriorSummary:
    parameter: str
    mean: float
    p2_5: float
    p97_5: float
    n_retained: int


@dataclass(frozen=True)
class RhatReport:
    parameter: str
    rhat: float
    chain_means: tuple[float, ...]
    chain_variances: tuple[float, ...]

    @property
    def converged(self) -> bool:
        return self.rhat < RHAT_GATE


def _require_pooled_draws(n_draws: int) -> None:
    if n_draws < MIN_DRAWS:
        raise InsufficientSamplesError(f"need >= {MIN_DRAWS} draws to summarize, got {n_draws}")


def _require_chain_count(n_chains: int) -> None:
    if n_chains < MIN_CHAINS:
        raise DegenerateChainError(f"need >= {MIN_CHAINS} chains, got {n_chains}")


def _require_chain_length(chain_length: int) -> None:
    if chain_length < MIN_CHAIN_LENGTH:
        raise DegenerateChainError(f"chains too short for R-hat, length {chain_length}")


def rhat(chains, parameter: str = "") -> RhatReport:
    """Gelman-Rubin potential scale reduction factor over >= 2 equal-length
    chains."""
    arrays = [np.asarray(c, dtype=float) for c in chains]
    m = len(arrays)
    _require_chain_count(m)
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise DegenerateChainError("chains must have equal length")
    _require_chain_length(n)
    means = np.array([a.mean() for a in arrays])
    variances = np.array([a.var(ddof=1) for a in arrays])
    w = float(variances.mean())
    if w <= 0.0:
        raise DegenerateChainError("zero within-chain variance")
    b = n * float(means.var(ddof=1))
    var_plus = (n - 1) / n * w + b / n
    return RhatReport(
        parameter=parameter,
        rhat=float(np.sqrt(var_plus / w)),
        chain_means=tuple(float(x) for x in means),
        chain_variances=tuple(float(x) for x in variances),
    )


def summarize(samples, parameter: str = "") -> PosteriorSummary:
    """Mean and equal-tailed 95% interval of pooled retained draws."""
    s = np.asarray(samples, dtype=float)
    _require_pooled_draws(len(s))
    lo, hi = np.percentile(s, [2.5, 97.5], method="linear")
    return PosteriorSummary(
        parameter=parameter,
        mean=float(s.mean()),
        p2_5=float(lo),
        p97_5=float(hi),
        n_retained=len(s),
    )


def require_draws(n_chains: int, chain_length: int) -> None:
    """Raise, before any sampling, the error that summarize or rhat would
    raise on n_chains chains of chain_length retained draws each."""
    _require_pooled_draws(n_chains * chain_length)
    _require_chain_count(n_chains)
    _require_chain_length(chain_length)


def transform_summary(samples, parameter: str = "") -> PosteriorSummary:
    """Summarize exp of the draws (the odds ratio from the logistic slope);
    the mean is the mean of transformed draws, not the transformed mean."""
    return summarize(np.exp(np.asarray(samples, dtype=float)), parameter=parameter)
