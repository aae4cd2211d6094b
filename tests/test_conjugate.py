"""Analytic oracles for the conjugate full conditionals."""
import math

import numpy as np
from scipy.integrate import quad

import meadjust.mcmc as mcmc
from meadjust import (
    GammaParams,
    ModelSpec,
    Rng,
    fit_linear,
    full_conditional_coeffs_linear,
    full_conditional_precision,
)
from meadjust.priors import NormalPrior, PriorSet


def _linear_priors(v0=100.0, v=100.0):
    return PriorSet(
        coeff0=NormalPrior(0.0, v0),
        coeff=NormalPrior(0.0, v),
        mu_x=NormalPrior(0.0, 10.0),
        tau_x=GammaParams(1.0, 1.0),
        tau_e=GammaParams(1.0, 1.0),
        tau_eps=GammaParams(1.0, 1.0),
    )


def _state_for(x, y, priors, tau_eps=1.0):
    spec = ModelSpec(kind="linear", w=np.asarray(x, float), outcome=np.asarray(y, float), priors=priors)
    state = mcmc.initial_state(spec, "naive_start", 0, Rng(0)) if len(x) >= 3 else None
    if state is None:
        state = mcmc.ChainState(
            coeff0=0.0,
            coeff=0.0,
            tau_eps=tau_eps,
            mu_x=0.0,
            tau_x=1.0,
            tau_e=1.0,
            l=np.log(np.asarray(x, float)),
            rng=Rng(0),
            proposals=mcmc._default_proposals(spec),
        )
    state.tau_eps = tau_eps
    state.l = np.log(np.asarray(x, float))
    return state, spec


def test_coeffs_single_point_analytic():
    """x=1, y=1, tau_eps=1, N(0,100) priors: hand-computed 2x2 posterior."""
    state, data = _state_for([1.0], [1.0], _linear_priors())
    mean, prec = full_conditional_coeffs_linear(state, data)
    prec_expected = np.array([[1.01, 1.0], [1.0, 1.01]])
    mean_expected = np.linalg.solve(prec_expected, np.array([1.0, 1.0]))
    assert np.max(np.abs(prec - prec_expected)) < 1e-10
    assert np.max(np.abs(mean - mean_expected)) < 1e-10


def test_coeffs_dominating_prior_limit():
    priors = PriorSet(
        coeff0=NormalPrior(2.0, 1e-12),
        coeff=NormalPrior(-3.0, 1e-12),
        mu_x=NormalPrior(0.0, 10.0),
        tau_x=GammaParams(1.0, 1.0),
        tau_e=GammaParams(1.0, 1.0),
        tau_eps=GammaParams(1.0, 1.0),
    )
    rng = np.random.default_rng(0)
    x = rng.lognormal(size=50)
    y = rng.normal(size=50)
    state, data = _state_for(x, y, priors)
    mean, _ = full_conditional_coeffs_linear(state, data)
    assert abs(mean[0] - 2.0) < 1e-6
    assert abs(mean[1] + 3.0) < 1e-6


def test_coeffs_bernstein_von_mises_vs_ols():
    """Flat-ish priors and n=10^4: the conjugate posterior sits on the OLS
    estimate to within 3 posterior SDs."""
    rng = np.random.default_rng(1)
    x = rng.lognormal(size=10_000)
    y = 0.7 + 0.3 * x + rng.normal(size=10_000)
    priors = _linear_priors(v0=1e6, v=1e6)
    state, data = _state_for(x, y, priors, tau_eps=1.0)
    mean, prec = full_conditional_coeffs_linear(state, data)
    cov = np.linalg.inv(prec)
    fit = fit_linear(x, y)
    assert abs(mean[0] - fit.intercept) < 3.0 * math.sqrt(cov[0, 0])
    assert abs(mean[1] - fit.slope) < 3.0 * math.sqrt(cov[1, 1])


def test_precision_no_data_returns_prior():
    prior = GammaParams(0.1, 10.0)
    post = full_conditional_precision([], prior)
    assert post == prior


def test_precision_hand_conjugate():
    post = full_conditional_precision([1.0, 1.0], GammaParams(1.0, 1.0))
    assert abs(post.shape - 2.0) < 1e-12
    assert abs(post.scale - 0.5) < 1e-12
    assert abs(post.mean - 1.0) < 1e-12


def test_precision_against_quadrature_oracle():
    """Posterior mean/variance from numeric integration of prior x likelihood
    match the returned gamma parameters."""
    residuals = np.array([0.4, -1.2, 0.7, 2.1, -0.3])
    prior = GammaParams(0.7, 2.5)
    post = full_conditional_precision(residuals, prior)
    ss = float(residuals @ residuals)
    n = len(residuals)

    def unnorm(tau):
        return tau ** (prior.shape - 1 + 0.5 * n) * math.exp(-tau / prior.scale - 0.5 * tau * ss)

    z, _ = quad(unnorm, 0, np.inf)
    m1, _ = quad(lambda t: t * unnorm(t), 0, np.inf)
    m2, _ = quad(lambda t: t * t * unnorm(t), 0, np.inf)
    mean = m1 / z
    var = m2 / z - mean**2
    assert abs(post.mean - mean) < 1e-8 * mean
    assert abs(post.variance - var) < 1e-8 * var


def test_precision_prior_washout():
    rng = np.random.default_rng(2)
    residuals = rng.normal(scale=0.5, size=100_000)  # true precision 4
    post = full_conditional_precision(residuals, GammaParams(0.1, 10.0))
    mle = len(residuals) / float(residuals @ residuals)
    assert abs(post.mean - mle) < 0.01 * mle
    assert abs(post.mean - 4.0) < 0.1
