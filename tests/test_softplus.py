"""The vectorized softplus that the logistic outcome terms and the naive
logistic fit share, against numpy's logaddexp(0, x)."""
import numpy as np

from meadjust.naive import softplus

SPECIAL = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -1e308, -745.0, 710.0])


def test_softplus_within_2_ulp_of_logaddexp():
    x = np.concatenate([np.linspace(-750.0, 750.0, 1_500_001), np.linspace(-40.0, 40.0, 800_001)])
    ref = np.logaddexp(0.0, x)
    got = softplus(x)
    assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(ref))


def test_softplus_special_values_equal_logaddexp():
    """The same values, signed zeros and NaN pattern; unlike logaddexp,
    softplus raises no floating-point warning on a NaN."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = softplus(SPECIAL)
    with np.errstate(invalid="ignore"):
        ref = np.logaddexp(0.0, SPECIAL)
    assert np.array_equal(got, ref, equal_nan=True)
    number = ~np.isnan(ref)
    assert np.array_equal(np.signbit(got[number]), np.signbit(ref[number]))


def test_softplus_writes_into_given_arrays_and_leaves_x():
    x = np.random.default_rng(3).normal(0.0, 20.0, size=1000)
    x_before = x.copy()
    out, work = np.empty_like(x), np.empty_like(x)
    assert softplus(x, out=out, work=work) is out
    assert np.array_equal(out, softplus(x))
    assert np.array_equal(x, x_before)
