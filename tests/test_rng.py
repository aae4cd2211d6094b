import math

import numpy as np
import pytest
from scipy import stats

from meadjust.errors import ParameterError
from meadjust.priors import TAU_E_PRIORS, LogNormalPrior, NormalPrior
from meadjust.rng import GammaParams, Rng, sample_gamma

N = 1_000_000


def test_same_seed_identical_streams():
    a = Rng(42).standard_normal(1000)
    b = Rng(42).standard_normal(1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ_and_decorrelate():
    root = Rng(42)
    a = root.split(0).standard_normal(200_000)
    b = root.split(1).standard_normal(200_000)
    assert not np.array_equal(a[:100], b[:100])
    assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(len(a))


def test_split_is_deterministic():
    a = Rng(7, (3,)).uniform(size=10)
    b = Rng(7).split(3).uniform(size=10)
    assert np.array_equal(a, b)


def test_negative_seed_or_stream_rejected():
    for seed, stream in ((-1, ()), (1, (0, -1))):
        with pytest.raises(ParameterError, match="non-negative"):
            Rng(seed, stream)


def test_normal_moments():
    draws = Rng(2).standard_normal(N)
    assert abs(draws.mean()) < 0.005
    assert abs(draws.var() - 1.0) < 0.01


def test_lognormal_params_validated_at_construction():
    with pytest.raises(ParameterError):
        LogNormalPrior(0.0, 0.0)
    with pytest.raises(ParameterError):
        LogNormalPrior(0.0, -2.0)
    for log_mean, log_variance in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)):
        with pytest.raises(ParameterError, match="finite"):
            LogNormalPrior(log_mean, log_variance)


def test_normal_params_validated_at_construction():
    for mean, variance in ((0.0, 0.0), (0.0, -1.0), (math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf)):
        with pytest.raises(ParameterError):
            NormalPrior(mean, variance)


@pytest.mark.parametrize(
    "shape,scale,rel_tol",
    [(0.1, 10.0, 0.05), (0.05, 1.0, 0.05)],
)
def test_gamma_table_rows(shape, scale, rel_tol):
    params = GammaParams(shape, scale)
    draws = sample_gamma(Rng(4), params, size=N)
    assert abs(draws.mean() - params.mean) < rel_tol * params.mean
    assert abs(draws.var() - params.variance) < rel_tol * params.variance


def test_gamma_shape_one_is_exponential():
    draws = sample_gamma(Rng(5), GammaParams(1.0, 1.0), size=N)
    assert abs(draws.mean() - 1.0) < 0.01
    # memoryless check at one threshold
    tail = draws[draws > 1.0] - 1.0
    assert abs(tail.mean() - 1.0) < 0.02


@pytest.mark.parametrize("shape", [0.01, 0.05, 0.1, 0.5])
def test_gamma_small_shapes_stay_valid(shape):
    draws = sample_gamma(Rng(6), GammaParams(shape, 1.0), size=N)
    assert np.all(draws > 0)
    assert np.all(np.isfinite(draws))
    rng = Rng(6)
    scalars = [sample_gamma(rng, GammaParams(shape, 1.0)) for _ in range(20_000)]
    assert all(isinstance(x, float) and 0 < x < math.inf for x in scalars)
    if shape == 0.01:  # some single draws underflow and are clamped
        assert min(scalars) == np.finfo(float).tiny


def test_gamma_rejects_bad_params():
    with pytest.raises(ParameterError):
        GammaParams(0.0, 1.0)
    with pytest.raises(ParameterError):
        GammaParams(1.0, -1.0)
    for shape, scale in ((1.0, math.inf), (math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ParameterError, match="finite"):
            GammaParams(shape, scale)


def test_gamma_scalar_draw():
    x = sample_gamma(Rng(8), GammaParams(2.0, 3.0))
    assert isinstance(x, float) and x > 0


def _moment_check(draws, mean, var, excess_kurtosis):
    n = len(draws)
    se_mean = math.sqrt(var / n)
    se_var = math.sqrt((excess_kurtosis + 2.0) * var**2 / n)
    assert abs(draws.mean() - mean) < 4.0 * se_mean
    assert abs(draws.var() - var) < 4.0 * se_var


def test_moment_matching_all_samplers():
    """First two moments within 4 analytic standard errors at n=10^6."""
    for shape, scale in [(0.5, 2.0), (3.0, 0.5)]:
        g = GammaParams(shape, scale)
        _moment_check(sample_gamma(Rng(14), g, size=N), g.mean, g.variance, 6.0 / shape)


@pytest.mark.parametrize("shape", [0.01, 0.5, 1.0, 3.0, 1000.5])
def test_gamma_draws_follow_the_gamma_law(shape):
    """Kolmogorov-Smirnov against scipy's gamma; 1000.5 is a typical
    posterior shape (prior shape plus half the cohort size)."""
    draws = sample_gamma(Rng(21), GammaParams(shape, 0.5), size=20_000)
    assert stats.kstest(draws, stats.gamma(shape, scale=0.5).cdf).pvalue > 1e-3


_POSITIVE = (1e-3, 0.5, 1.0, 3.0, 25.0)


@pytest.mark.parametrize(
    "prior,reference,points",
    [
        (NormalPrior(0.0, 100.0), stats.norm(0.0, 10.0).logpdf, (-7.0, -0.5, 0.0, 1.0, 25.0)),
        (NormalPrior(-1.5, 0.25), stats.norm(-1.5, 0.5).logpdf, (-7.0, -0.5, 0.0, 1.0, 25.0)),
        # the density of log x: the lognormal density times the Jacobian x
        (LogNormalPrior(0.0, 100.0), lambda x: stats.lognorm(10.0).logpdf(x) + math.log(x), _POSITIVE),
        (
            LogNormalPrior(0.3, 0.5),
            lambda x: stats.lognorm(math.sqrt(0.5), scale=math.exp(0.3)).logpdf(x) + math.log(x),
            _POSITIVE,
        ),
        *[(g, stats.gamma(g.shape, scale=g.scale).logpdf, _POSITIVE) for g in TAU_E_PRIORS.values()],
        (GammaParams(0.01, 10.0), stats.gamma(0.01, scale=10.0).logpdf, _POSITIVE),
        (GammaParams(4.0, 1.0), stats.gamma(4.0, scale=1.0).logpdf, _POSITIVE),
    ],
)
def test_prior_logpdf_matches_scipy(prior, reference, points):
    for x in points:
        ref = float(reference(x))
        assert abs(prior.logpdf(x) - ref) <= 1e-12 * max(1.0, abs(ref)), (prior, x)


def test_gamma_logpdf_outside_support():
    for x in (0.0, -1.0):
        assert GammaParams(2.0, 0.5).logpdf(x) == -math.inf
