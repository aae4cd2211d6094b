"""Frequentist fits that ignore measurement error, plus the classical
reliability-coefficient corrections.

The linear fit is ordinary least squares with the classical standard error;
the logistic fit is maximum likelihood by Newton iterations on the
log-likelihood (iteratively reweighted least squares) with Wald standard
errors from the inverse observed information. Its per-subject log
likelihood, ``logistic_terms``, is also the sampler's logistic outcome
term.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ParameterError, SingularDesignError

__all__ = [
    "FitResult",
    "fit_linear",
    "fit_logistic",
    "correct_slope_reliability",
    "correct_rr_reliability",
]

_Z95 = 1.96


@dataclass(frozen=True)
class FitResult:
    intercept: float
    slope: float
    slope_se: float
    ci95_lo: float
    ci95_hi: float
    converged: bool
    iterations: int

    @classmethod
    def from_estimates(cls, intercept, slope, slope_se, converged, iterations) -> "FitResult":
        return cls(
            intercept=float(intercept),
            slope=float(slope),
            slope_se=float(slope_se),
            ci95_lo=float(slope - _Z95 * slope_se),
            ci95_hi=float(slope + _Z95 * slope_se),
            converged=bool(converged),
            iterations=int(iterations),
        )


def fit_linear(w, y) -> FitResult:
    """OLS of y on w with the classical slope standard error."""
    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(w)
    if len(y) != n:
        raise ParameterError(f"length mismatch: {n} vs {len(y)}")
    if n < 3:
        raise SingularDesignError(f"need at least 3 points, got {n}")
    wbar = w.mean()
    ybar = y.mean()
    dw = w - wbar
    sxx = _dot(dw, dw)
    if sxx <= 0.0:
        raise SingularDesignError("predictor has zero variance")
    slope = _dot(dw, y - ybar) / sxx
    intercept = ybar - slope * wbar
    resid = y - intercept - slope * w
    sigma2 = _dot(resid, resid) / (n - 2)
    se = math.sqrt(max(sigma2, 0.0) / sxx)
    return FitResult.from_estimates(intercept, slope, se, converged=True, iterations=0)


_MAX_ITER = 100  # Newton steps before giving up (converged=False)
_SCORE_TOL = 1e-8  # score norm below which the fit has converged


def softplus(x, out=None, work=None):
    """log(1 + e^x) elementwise, as max(x, 0) + log1p(e^-|x|).

    That is the branch numpy's ``logaddexp(0, x)`` takes, with the same
    values at +-inf, NaN and +-0, but built from ufuncs that run in SIMD
    loops, where ``logaddexp`` calls libm one element at a time; elsewhere
    the two agree to 2 ULP. ``out`` and ``work`` are optional arrays shaped
    like x to write the result and the intermediate max(x, 0) into; x is
    left as it is.
    """
    out = np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0, out=work)
    return out


_DOT_SLICE = 8192  # subjects per BLAS call; OpenBLAS threads ddot only beyond 10 000


def _dot(a, b):
    """a.T @ b, the product that sums over the subjects (the first axis),
    as BLAS products over fixed slices of ``_DOT_SLICE`` subjects summed in
    order: no slice is long enough for BLAS to split it across threads, so
    the result is the same under any BLAS thread count. Up to
    ``_DOT_SLICE`` subjects it is exactly a.T @ b. A float for two vectors,
    else an array."""
    total = a[:_DOT_SLICE].T @ b[:_DOT_SLICE]
    for i in range(_DOT_SLICE, len(a), _DOT_SLICE):
        total = total + a[i : i + _DOT_SLICE].T @ b[i : i + _DOT_SLICE]
    return float(total) if np.ndim(total) == 0 else total


def logistic_terms(eta, z, out=None, work=None):
    """Per-subject logistic log likelihood z*eta - log(1 + e^eta) at linear
    predictors eta and 0/1 outcomes z, without overflow. ``out`` and
    ``work`` are optional arrays shaped like eta to write the result and the
    intermediates into; eta is left as it is."""
    out = softplus(eta, out=out, work=work)
    return np.subtract(np.multiply(z, eta, out=work), out, out=out)


def _logistic_loglik(eta, z):
    return float(logistic_terms(eta, z).sum())


def fit_logistic(w, z) -> FitResult:
    """Logistic regression of z on w by Newton/IRLS; slope on the log-odds scale.

    Starts at (logit(mean(z)), 0); halves the step while the log-likelihood
    decreases. converged=False (no exception) when the score norm never falls
    below the tolerance, which is the complete-separation signature.
    """
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    n = len(w)
    if len(z) != n:
        raise ParameterError(f"length mismatch: {n} vs {len(z)}")
    if not set(np.unique(z)) <= {0.0, 1.0}:
        raise ParameterError("z must be 0/1")
    zbar = z.mean()
    if zbar in (0.0, 1.0):
        raise ParameterError("both outcome classes must be present")

    X = np.column_stack([np.ones(n), w])
    b = np.array([math.log(zbar / (1.0 - zbar)), 0.0])
    eta = X @ b
    ll = _logistic_loglik(eta, z)
    converged = False
    iterations = 0
    for it in range(1, _MAX_ITER + 1):
        iterations = it
        mu = expit(eta)
        score = _dot(X, z - mu)
        wt = mu * (1.0 - mu)
        info = _dot(X, X * wt[:, None])
        if np.linalg.norm(score) < _SCORE_TOL:
            converged = True
            iterations = it - 1
            break
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            break
        # halve on real decreases only; near the optimum the change sits
        # below the rounding noise of ll itself
        noise = 1e-9 * (1.0 + abs(ll))
        scale = 1.0
        for _ in range(30):
            cand = b + scale * step
            ll_cand = _logistic_loglik(X @ cand, z)
            if ll_cand >= ll - noise or not np.isfinite(ll):
                break
            scale *= 0.5
        b = b + scale * step
        eta = X @ b
        ll = _logistic_loglik(eta, z)

    mu = expit(eta)
    score = _dot(X, z - mu)
    info = _dot(X, X * (mu * (1.0 - mu))[:, None])
    if np.linalg.norm(score) < _SCORE_TOL:
        converged = True
    if converged and np.max(np.abs(z - mu)) < 1e-6:
        # every fitted probability saturated at its outcome: the score only
        # vanished because the likelihood is maximized at infinity
        converged = False
        iterations = max(iterations, 1)

    try:
        cov = np.linalg.inv(info)
        se = math.sqrt(max(cov[1, 1], 0.0))
    except np.linalg.LinAlgError:
        se = math.inf
    return FitResult.from_estimates(b[0], b[1], se, converged, iterations)


def correct_slope_reliability(slope_obs: float, rho: float) -> float:
    """Classical attenuation correction: divide the observed slope by the
    reliability coefficient."""
    if not (0.0 < rho <= 1.0):
        raise ParameterError(f"reliability must lie in (0, 1], got {rho}")
    return slope_obs / rho


def correct_rr_reliability(rr_obs: float, rho: float, form: str = "exponent") -> float:
    """Relative-risk analogue of the reliability correction.

    form="exponent" (default) raises the observed RR to 1/rho, the reading
    under which shrinking reliability inflates an elevated RR.
    form="multiplier" applies the literal sqrt(rho) multiplier instead.
    """
    if not (rr_obs > 0):
        raise ParameterError(f"rr_obs must be > 0, got {rr_obs}")
    if not (0.0 < rho <= 1.0):
        raise ParameterError(f"reliability must lie in (0, 1], got {rho}")
    if form == "exponent":
        return rr_obs ** (1.0 / rho)
    if form == "multiplier":
        return rr_obs * math.sqrt(rho)
    raise ParameterError(f"unknown correction form {form!r}")
