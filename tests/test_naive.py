import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.special import expit

from meadjust import (
    CohortConfig,
    ParameterError,
    SingularDesignError,
    correct_rr_reliability,
    correct_slope_reliability,
    fit_linear,
    fit_logistic,
    simulate_cohort,
)


def _ols_oracle(w, y):
    """Direct solve of the 2x2 normal equations, independent of fit_linear."""
    w = np.asarray(w, float)
    y = np.asarray(y, float)
    n = len(w)
    A = np.array([[n, w.sum()], [w.sum(), w @ w]])
    b = np.array([y.sum(), w @ y])
    return np.linalg.solve(A, b)


def test_linear_perfect_fit():
    w = np.arange(1.0, 11.0)
    fit = fit_linear(w, 2.0 * w)
    assert abs(fit.intercept) < 1e-10
    assert abs(fit.slope - 2.0) < 1e-12
    assert fit.slope_se < 1e-12
    assert fit.converged and fit.iterations == 0


def test_linear_five_point_oracle():
    w = np.array([0.2, 1.1, 2.3, 3.1, 4.7])
    y = np.array([1.0, 0.4, -0.6, 2.2, 0.9])
    fit = fit_linear(w, y)
    intercept, slope = _ols_oracle(w, y)
    assert abs(fit.intercept - intercept) < 1e-10
    assert abs(fit.slope - slope) < 1e-10


def test_linear_matches_oracle_on_random_designs():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        w = rng.normal(size=10) * rng.uniform(0.5, 3.0)
        y = rng.normal(size=10) + rng.uniform(-2, 2) * w
        fit = fit_linear(w, y)
        intercept, slope = _ols_oracle(w, y)
        assert abs(fit.intercept - intercept) < 1e-10
        assert abs(fit.slope - slope) < 1e-10


def test_linear_ci_consistency():
    w = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.1, 0.9, 2.2, 2.8])
    fit = fit_linear(w, y)
    assert fit.ci95_lo == pytest.approx(fit.slope - 1.96 * fit.slope_se, abs=1e-14)
    assert fit.ci95_hi == pytest.approx(fit.slope + 1.96 * fit.slope_se, abs=1e-14)
    assert fit.ci95_lo < fit.ci95_hi


def test_linear_degenerate_designs():
    with pytest.raises(SingularDesignError):
        fit_linear([1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(SingularDesignError):
        fit_linear([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ParameterError):
        fit_linear([1.0, 2.0, 3.0], [0.0, 1.0])


def test_full_scale_null_linear(full_scale_cohort):
    fit = fit_linear(full_scale_cohort.w_obs, full_scale_cohort.y)
    assert fit.ci95_lo <= 0.0 <= fit.ci95_hi
    assert abs(fit.slope) < 0.005


def test_logistic_symmetric_balanced_data():
    w = np.array([-1.0, -1.0, 1.0, 1.0])
    z = np.array([0, 1, 0, 1])
    fit = fit_logistic(w, z)
    assert fit.converged
    assert abs(fit.slope) < 1e-10
    assert abs(fit.intercept) < 1e-10


def test_logistic_beats_grid_oracle():
    rng = np.random.default_rng(7)
    w = rng.normal(size=20)
    z = (rng.random(20) < expit(0.3 + 0.8 * w)).astype(int)
    fit = fit_logistic(w, z)
    assert fit.converged

    def loglik(b0, b1):
        eta = b0 + b1 * w
        return float(z @ eta - np.logaddexp(0.0, eta).sum())

    grid = np.linspace(-5.0, 5.0, 201)
    best = max(loglik(b0, b1) for b0 in grid for b1 in grid)
    assert loglik(fit.intercept, fit.slope) >= best


def test_logistic_score_norm_at_convergence():
    rng = np.random.default_rng(11)
    for _ in range(20):
        w = rng.normal(size=200)
        z = (rng.random(200) < expit(-1.0 + 0.5 * w)).astype(int)
        if z.min() == z.max():
            continue
        fit = fit_logistic(w, z)
        if not fit.converged:
            continue
        X = np.column_stack([np.ones(len(w)), w])
        mu = expit(X @ np.array([fit.intercept, fit.slope]))
        assert np.linalg.norm(X.T @ (z - mu)) < 1e-8


def test_logistic_single_class_rejected():
    with pytest.raises(ParameterError):
        fit_logistic([0.0, 1.0, 2.0], [1, 1, 1])


def test_logistic_complete_separation_flagged():
    w = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    z = np.array([0, 0, 0, 1, 1, 1])
    fit = fit_logistic(w, z)
    assert not fit.converged
    assert fit.iterations > 0


def _fits_sha256(w, y, z) -> str:
    """SHA-256 over the repr of every field of the linear fit of y and the
    logistic fit of z on w."""
    digest = hashlib.sha256()
    for fit in (fit_linear(w, y), fit_logistic(w, z)):
        for field in dataclasses.fields(fit):
            digest.update(repr(getattr(fit, field.name)).encode())
    return digest.hexdigest()


# Recorded when the logistic fit summed its log likelihood as z @ eta minus
# the sum of softplus(eta), before it shared the sampler's per-subject terms.
NAIVE_FITS_SHA256 = {
    "desk-w": "f61f2bc1d010c39a52f05e59b168948b4dc0f0ffa924bd58235e2c6dd450c410",
    "desk-log_w": "5d92d5dcd062e2563c75445e4e3b4fc10c3fb84067a5e29a3a76bd83d7247ec3",
    "full-w": "024595a2114ee7f9e02fad99a460c7e484ab46d458f3fae0f922731262d50ba0",
    "full-log_w": "8b9933064177c218b4ae88a2496fc77a99acfd619447aa429d4ff7d318c4d5f5",
    "separation": "e58cd42b1828a7c10af9631c14491a2197ed622493fe22bd6e3e96fb4978b5a3",
}


@pytest.mark.parametrize("case", sorted(NAIVE_FITS_SHA256))
def test_naive_fits_pinned(case, full_scale_cohort):
    """Both fits, bit for bit, on W and log W of a desk-scale cohort
    (n=2000) and of the full-scale one, and the logistic fit under complete
    separation."""
    if case == "separation":
        w = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        z = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        assert _fits_sha256(w, z, z) == NAIVE_FITS_SHA256[case]
        return
    scale, exposure = case.split("-")
    cohort = simulate_cohort(CohortConfig(n=2000, seed=10)) if scale == "desk" else full_scale_cohort
    w = cohort.w_obs if exposure == "w" else np.log(cohort.w_obs)
    assert _fits_sha256(w, cohort.y, cohort.z) == NAIVE_FITS_SHA256[case]


def test_full_scale_null_logistic(full_scale_cohort):
    fit = fit_logistic(full_scale_cohort.w_obs, full_scale_cohort.z)
    assert fit.converged
    or_lo, or_hi = math.exp(fit.ci95_lo), math.exp(fit.ci95_hi)
    assert or_lo <= 1.0 <= or_hi
    assert abs(fit.slope) < 0.02


def test_attenuation_positive_control():
    """True slope 0.5 on log X with unit log-scale variances attenuates to
    0.25 when regressing on log W."""
    c = simulate_cohort(CohortConfig(n=100_000, beta_true=0.5, seed=31))
    fit = fit_linear(np.log(c.w_obs), c.y)
    assert abs(fit.slope - 0.25) < 0.025


def test_slope_reliability_correction():
    assert correct_slope_reliability(0.3, 1.0) == 0.3
    assert correct_slope_reliability(0.0, 0.2) == 0.0
    assert correct_slope_reliability(0.25, 0.5) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        correct_slope_reliability(0.1, 0.0)
    with pytest.raises(ParameterError):
        correct_slope_reliability(0.1, 1.2)


def test_rr_reliability_correction():
    assert correct_rr_reliability(2.0, 1.0) == pytest.approx(2.0)
    assert correct_rr_reliability(1.0, 0.3) == pytest.approx(1.0)
    assert correct_rr_reliability(2.0, 0.5) == pytest.approx(4.0)
    assert correct_rr_reliability(2.0, 0.5, form="multiplier") == pytest.approx(2.0 * math.sqrt(0.5))
    assert correct_rr_reliability(1.0, 0.5, form="multiplier") != 1.0  # the literal reading moves the null RR
    with pytest.raises(ParameterError):
        correct_rr_reliability(0.0, 0.5)
    with pytest.raises(ParameterError):
        correct_rr_reliability(2.0, 0.5, form="nonsense")


def test_corrections_cannot_move_exact_null():
    for rho in (0.1, 0.4, 0.9, 1.0):
        assert correct_slope_reliability(0.0, rho) == 0.0
        assert correct_rr_reliability(1.0, rho) == pytest.approx(1.0)
