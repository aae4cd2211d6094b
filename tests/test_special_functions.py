"""The package's own logistic link and log Phi against scipy's, which the
package does not import: ``naive.expit`` against ``scipy.special.expit``
and ``evidence._log_ndtr`` against ``scipy.special.log_ndtr``."""
import numpy as np
import pytest
from scipy import special

import test_evidence
from meadjust import evidence
from meadjust.evidence import _log_ndtr
from meadjust.naive import expit

EPS = np.finfo(float).eps


@pytest.mark.parametrize("scale", [1.0, 3.0, 10.0, 30.0])
def test_expit_close_to_scipy(scale):
    """Both compute 1 / (1 + e^-x); numpy's SIMD exp is within 1 ULP of
    libm's, and with the rounding of the sum and the quotient on each side
    the two results differ by at most 3.5 eps relative."""
    x = np.random.default_rng(19).normal(0.0, scale, size=1_000_000)
    ref = special.expit(x)
    assert np.all(np.abs(expit(x) - ref) <= 4.0 * EPS * ref)


def test_expit_special_values_equal_scipy():
    """Saturation to exactly 0 and 1, and NaN, without a floating-point
    warning (a RuntimeWarning fails the suite)."""
    x = np.array([np.inf, -np.inf, np.nan, 800.0, -800.0])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = expit(x)
    assert np.array_equal(got, special.expit(x), equal_nan=True)


def test_log_ndtr_close_to_scipy(monkeypatch):
    """Over [-1e150, 40], across the branch points 0 and -20 and the range
    where the upper tail underflows toward a subnormal or -0.0, and at every
    t that the extreme prior-scale test of the evidence toy passes to log
    Phi."""
    reached = []

    def recording(t):
        reached.append(t)
        return _log_ndtr(t)

    monkeypatch.setattr(evidence, "_log_ndtr", recording)
    test_evidence.test_extreme_prior_scales_are_finite()
    assert reached
    ts = np.concatenate(
        [
            -np.logspace(150.0, -300.0, 100_001),
            np.linspace(-30.0, 40.0, 100_001),
            np.logspace(-300.0, np.log10(40.0), 10_001),
            [0.0, -0.0, -20.0, np.nextafter(-20.0, 0.0), np.nextafter(-20.0, -1.0), np.nextafter(0.0, 1.0)],
            reached,
        ]
    )
    got = np.array([_log_ndtr(float(t)) for t in ts])
    ref = special.log_ndtr(ts)
    err = np.abs(got - ref)
    assert np.all((err <= 1e-12 * np.abs(ref)) | (err <= 1e-300)), ts[np.argmax(err)]
