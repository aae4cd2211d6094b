import math

import numpy as np
import pytest

from meadjust.errors import ParameterError
from meadjust.priors import LogNormalPrior
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


def test_gamma_rejects_bad_params():
    with pytest.raises(ParameterError):
        GammaParams(0.0, 1.0)
    with pytest.raises(ParameterError):
        GammaParams(1.0, -1.0)


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
