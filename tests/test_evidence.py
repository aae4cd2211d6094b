"""Oracles for the evidence-ratio toy model: closed-form Gaussian marginal,
Monte Carlo marginal, and the prior-mass limits."""
import math

import numpy as np
import pytest
from scipy.stats import norm

from meadjust import (
    HypothesisPriors,
    ParameterError,
    Rng,
    ToyData,
    delta,
    marginal_likelihood_null,
    marginal_likelihood_positive,
)


def _null_data(n, seed=0, precision=1.0):
    rng = Rng(seed, (9,))
    v = rng.standard_normal(n)
    u = rng.standard_normal(n) / math.sqrt(precision)
    return ToyData(v, u, precision)


def _delta(data, prior):
    return delta(marginal_likelihood_null(data), marginal_likelihood_positive(data, prior), prior)


def _closed_form_positive(data, prior):
    """Analytic Gaussian-integral marginal for the linear toy model."""
    tau = data.noise_precision
    svv = float(data.v @ data.v)
    suv = float(data.u @ data.v)
    c = marginal_likelihood_null(data)
    s2 = 1.0 / (tau * svv + 1.0 / prior.sigma_b**2)
    m = tau * suv * s2
    return (
        c
        + 0.5 * math.log(2.0 / math.pi)
        - math.log(prior.sigma_b)
        + 0.5 * math.log(2.0 * math.pi * s2)
        + norm.logcdf(m / math.sqrt(s2))
        + 0.5 * m * m / s2
    )


def test_null_single_standard_point():
    data = ToyData([1.0], [0.0], 1.0)
    assert marginal_likelihood_null(data) == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_null_decreases_when_scaled():
    data = ToyData([1.0, -0.5, 2.0], [0.3, 0.1, -0.2], 1.0)
    scaled = ToyData(data.v, 10.0 * data.u, 1.0)
    assert marginal_likelihood_null(scaled) < marginal_likelihood_null(data)


def test_null_matches_per_point_oracle():
    rng = Rng(1, (9,))
    data = ToyData(rng.standard_normal(50), rng.standard_normal(50) / 2.0, 4.0)
    oracle = norm.logpdf(data.u, scale=0.5).sum()
    assert marginal_likelihood_null(data) == pytest.approx(oracle, abs=1e-12)


def test_positive_collapses_when_predictor_is_zero():
    data = ToyData(np.zeros(20), Rng(2, (9,)).standard_normal(20), 1.0)
    prior = HypothesisPriors(0.5, 1.0)
    assert marginal_likelihood_positive(data, prior) == marginal_likelihood_null(data)


def test_positive_collapses_as_prior_scale_vanishes():
    data = _null_data(50, seed=3)
    tight = marginal_likelihood_positive(data, HypothesisPriors(0.5, 1e-8))
    assert tight == pytest.approx(marginal_likelihood_null(data), abs=1e-6)


@pytest.mark.parametrize(
    "n,seed,sigma", [(20, 4, 1.0), (200, 5, 0.5), (1000, 6, 2.0), (1000, 0, 1000.0), (1000, 0, 200.0)]
)
def test_positive_matches_closed_form(n, seed, sigma):
    data = _null_data(n, seed=seed)
    prior = HypothesisPriors(0.5, sigma)
    assert marginal_likelihood_positive(data, prior) == pytest.approx(
        _closed_form_positive(data, prior), abs=1e-8
    )


def test_positive_matches_monte_carlo():
    data = _null_data(20, seed=7)
    prior = HypothesisPriors(0.5, 1.0)
    rng = Rng(8, (9,))
    b = np.abs(rng.standard_normal(1_000_000)) * prior.sigma_b
    tau = data.noise_precision
    const = 0.5 * data.n * math.log(tau / (2.0 * math.pi))
    r2 = ((data.u[None, :] - b[:, None] * data.v[None, :]) ** 2).sum(axis=1)
    ll = const - 0.5 * tau * r2
    shift = ll.max()
    weights = np.exp(ll - shift)
    mc_log = shift + math.log(weights.mean())
    mc_se = weights.std() / (weights.mean() * math.sqrt(len(b)))
    assert abs(marginal_likelihood_positive(data, prior) - mc_log) < 3.0 * mc_se


def test_extreme_prior_scales_are_finite():
    """sigma_b**2 leaves the float range at both ends, and v.v underflows for
    a tiny predictor; the closed form works in logs, and delta reads inf
    where the ratio itself does."""
    data = _null_data(10, seed=9)
    log_null = marginal_likelihood_null(data)
    for sigma in (1e-300, 1e308):
        assert math.isfinite(marginal_likelihood_positive(data, HypothesisPriors(0.5, sigma))), sigma
    wide = HypothesisPriors(0.5, 1e308)
    assert delta(log_null, marginal_likelihood_positive(data, wide), wide) == math.inf
    # v.v = 1e-400 is negligible against sigma_b**-2 = 1: the null value
    tiny = ToyData([1e-200], [1.0], 1.0)
    assert marginal_likelihood_positive(tiny, HypothesisPriors(0.5, 1.0)) == pytest.approx(
        marginal_likelihood_null(tiny), abs=1e-12
    )


def test_delta_equal_masses_zero_predictor_is_one():
    data = ToyData(np.zeros(30), Rng(10, (9,)).standard_normal(30), 1.0)
    assert _delta(data, HypothesisPriors(0.5, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_delta_zero_predictor_equals_prior_odds():
    data = ToyData(np.zeros(30), Rng(11, (9,)).standard_normal(30), 1.0)
    for p0 in (0.2, 0.5, 0.9):
        assert _delta(data, HypothesisPriors(p0, 1.0)) == pytest.approx(p0 / (1 - p0), rel=1e-12)


def test_delta_null_data_favors_null_and_grows_with_n():
    data = _null_data(1000, seed=1)
    prior = HypothesisPriors(0.5, 1.0)
    d_1000 = _delta(data, prior)
    d_10 = _delta(ToyData(data.v[:10], data.u[:10], 1.0), prior)
    assert d_1000 > 5.0
    assert d_1000 > d_10


def test_delta_vanishes_when_null_rejected_a_priori():
    data = _null_data(1000, seed=1)
    d = _delta(data, HypothesisPriors(0.01, 1.0))
    assert d < 1.0
    tiny = _delta(data, HypothesisPriors(1e-6, 1.0))
    assert tiny < 1e-3


def test_delta_strictly_increasing_in_null_mass():
    data = _null_data(200, seed=13)
    values = [_delta(data, HypothesisPriors(p, 1.0)) for p in np.linspace(0.05, 0.95, 10)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_median_delta_over_seeds_exceeds_one():
    prior = HypothesisPriors(0.5, 1.0)
    deltas = [_delta(_null_data(1000, seed=100 + k), prior) for k in range(100)]
    assert np.median(deltas) > 1.0


def test_input_validation():
    with pytest.raises(ParameterError):
        ToyData([1.0], [1.0, 2.0], 1.0)
    with pytest.raises(ParameterError):
        ToyData([], [], 1.0)
    with pytest.raises(ParameterError):
        ToyData([1.0], [1.0], 0.0)
    with pytest.raises(ParameterError):
        HypothesisPriors(0.0, 1.0)
    with pytest.raises(ParameterError):
        HypothesisPriors(0.5, -1.0)
    with pytest.raises(ParameterError, match="finite"):
        ToyData([1.0], [1.0], math.inf)
    for v, u in (([math.nan], [1.0]), ([1.0], [math.inf]), ([1.0, -math.inf], [0.0, 0.0])):
        with pytest.raises(ParameterError, match="finite"):
            ToyData(v, u, 1.0)
    with pytest.raises(ParameterError, match="finite"):
        HypothesisPriors(0.5, math.inf)
    with pytest.raises(ParameterError, match="1-D"):
        ToyData(np.ones((5, 2)), np.ones((5, 2)), 1.0)
