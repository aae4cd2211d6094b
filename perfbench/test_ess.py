"""Check the benchmark's bulk ESS against AR(1) chains, whose ESS has the
closed form n (1 - rho) / (1 + rho).

Run with `python -m pytest perfbench/test_ess.py`.
"""
import numpy as np
import pytest

from ess import bulk_ess


def _ar1(rho: float, chains: int, draws: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((chains, draws))
    x = np.empty((chains, draws))
    x[:, 0] = eps[:, 0] / np.sqrt(1.0 - rho**2)  # stationary start
    for t in range(1, draws):
        x[:, t] = rho * x[:, t - 1] + eps[:, t]
    return x


@pytest.mark.parametrize("rho", [-0.3, 0.0, 0.5, 0.9])
def test_ar1_closed_form(rho):
    chains, draws = 4, 20_000
    expected = chains * draws * (1.0 - rho) / (1.0 + rho)
    ess = bulk_ess(_ar1(rho, chains, draws, seed=7))
    assert ess == pytest.approx(expected, rel=0.1)


def test_monotone_transform_leaves_ess_unchanged():
    x = _ar1(0.7, 4, 5_000, seed=3)
    assert bulk_ess(np.exp(x)) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_chains_stuck_apart_have_low_ess():
    x = _ar1(0.5, 4, 5_000, seed=5) + np.arange(4)[:, None] * 10.0
    assert bulk_ess(x) < 100


def test_constant_draws_give_nan():
    assert np.isnan(bulk_ess(np.ones((3, 100))))
