import math

import numpy as np
import pytest

from meadjust import (
    Cohort,
    CohortConfig,
    CohortParseError,
    ModelSpec,
    ParameterError,
    fit_linear,
    linear_priors,
    read_cohort,
    simulate_cohort,
    write_cohort,
)


def test_config_validation_names_parameter():
    with pytest.raises(ParameterError, match="n "):
        CohortConfig(n=0)
    with pytest.raises(ParameterError, match="pi"):
        CohortConfig(pi=1.5)
    with pytest.raises(ParameterError, match="tau_e"):
        CohortConfig(tau_e=0.0)
    with pytest.raises(ParameterError, match="outcome_kind"):
        CohortConfig(outcome_kind="weird")
    for kwargs in ({"n": 50.0}, {"n": True}, {"seed": 1.7}):
        with pytest.raises(ParameterError, match="must be an integer"):
            CohortConfig(**kwargs)
    assert CohortConfig(n=np.int64(5)).n == 5


def test_full_scale_cohort_shape():
    c = simulate_cohort(CohortConfig(n=100_000, seed=1))
    lx, lw = np.log(c.x_true), np.log(c.w_obs)
    assert abs(lx.var() - 1.0) < 0.03
    assert abs(lw.var() - 2.0) < 0.05
    assert abs(c.z.mean() - 0.05) < 0.003
    # attenuation geometry on the log scale
    assert abs(np.corrcoef(lx, lw)[0, 1] - math.sqrt(0.5)) < 0.01


def test_no_error_limit():
    c = simulate_cohort(CohortConfig(n=5000, tau_e=1e12, seed=2))
    assert np.max(np.abs(c.w_obs / c.x_true - 1.0)) < 1e-5


def test_deterministic_and_seed_sensitive():
    cfg = CohortConfig(n=500, seed=3)
    assert simulate_cohort(cfg) == simulate_cohort(cfg)
    other = simulate_cohort(CohortConfig(n=500, seed=4))
    assert not (simulate_cohort(cfg) == other)


def test_exposures_unchanged_by_outcome_kind():
    base = dict(n=300, seed=5)
    both = simulate_cohort(CohortConfig(outcome_kind="both", **base))
    cont = simulate_cohort(CohortConfig(outcome_kind="continuous", **base))
    binary = simulate_cohort(CohortConfig(outcome_kind="binary", **base))
    assert np.array_equal(both.w_obs, cont.w_obs)
    assert np.array_equal(both.w_obs, binary.w_obs)
    assert np.array_equal(both.y, cont.y)
    assert np.array_equal(both.z, binary.z)
    assert np.all(cont.z == 0)
    assert np.all(binary.y == 0.0)


def test_error_nondifferential():
    c = simulate_cohort(CohortConfig(n=100_000, seed=6))
    log_e = np.log(c.w_obs) - np.log(c.x_true)
    bound = 4.0 / math.sqrt(len(c))
    assert abs(np.corrcoef(log_e, c.y)[0, 1]) < bound
    assert abs(np.corrcoef(log_e, c.z)[0, 1]) < bound


def test_null_independence_ci_coverage():
    """Across 100 replicates the naive linear CI covers zero at least 95
    times (nominal 95% coverage; fixed seed set)."""
    hits = 0
    for seed in range(100):
        c = simulate_cohort(CohortConfig(n=100_000, seed=1000 + seed))
        fit = fit_linear(c.w_obs, c.y)
        hits += fit.ci95_lo <= 0.0 <= fit.ci95_hi
    assert hits >= 95


def test_positivity():
    c = simulate_cohort(CohortConfig(n=10_000, mu_x=-3.0, tau_x=0.3, seed=8))
    assert np.all(c.x_true > 0)
    assert np.all(c.w_obs > 0)


def test_round_trip(tmp_path):
    c = simulate_cohort(CohortConfig(n=200, seed=9))
    path = tmp_path / "cohort.csv"
    write_cohort(c, path)
    back = read_cohort(path)
    assert back == c
    assert back.config == c.config


def test_hand_written_file(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("x_true,w_obs,y,z\n1.0,1.5,0.2,0\n2.0,1.0,-0.3,1\n0.5,0.25,0.0,0\n")
    c = read_cohort(path)
    assert len(c) == 3
    assert c.config is None
    assert c.z.tolist() == [0, 1, 0]


def test_negative_exposure_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_true,w_obs,y,z\n1.0,-1.5,0.2,0\n")
    with pytest.raises(CohortParseError, match="line 2"):
        read_cohort(path)


@pytest.mark.parametrize(
    "body,lineno",
    [
        ("x_true,w_obs,y\n", 1),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0\n", 2),
        ("x_true,w_obs,y,z\n1.0,1.0,abc,0\n", 2),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0,2\n", 2),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0,0\n1.0,1.0,0.0,7\n", 3),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0,0\n1.0,inf,0.0,0\n", 3),
        ("x_true,w_obs,y,z\n1.0,1.0,0.0,0\n1.0,1.0,nan,0\n", 3),
        ("x_true,w_obs,y,z\ninf,1.0,0.0,1\n", 2),
        (b"x_true,w_obs,y,z\n1.0,1.0,0.0,0\n1.0,1.0,\xff0.0,0\n", 3),
    ],
)
def test_malformed_files_name_line(tmp_path, body, lineno):
    path = tmp_path / "bad.csv"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    with pytest.raises(CohortParseError, match=f"line {lineno}"):
        read_cohort(path)


def test_cohort_invariants_enforced():
    with pytest.raises(ParameterError):
        Cohort([1.0, -1.0], [1.0, 1.0], [0.0, 0.0], [0, 0])
    with pytest.raises(ParameterError):
        Cohort([1.0], [1.0, 1.0], [0.0], [0])
    for x, w, y in (([math.inf], [1.0], [0.0]), ([1.0], [math.inf], [0.0]), ([1.0], [1.0], [math.nan])):
        with pytest.raises(ParameterError, match="finite"):
            Cohort(x, w, y, [0])
    for z in ([2], [0.5]):
        with pytest.raises(ParameterError, match="0 or 1"):
            Cohort([1.0], [1.0], [0.0], z)
    with pytest.raises(ParameterError, match="no records"):
        Cohort([], [], [], [])


def test_model_spec_rejects_non_finite():
    for w, y in (([1.0, math.inf], [0.0, 0.0]), ([1.0, 2.0], [math.nan, 0.0])):
        with pytest.raises(ParameterError, match="finite"):
            ModelSpec(kind="linear", w=w, outcome=y, priors=linear_priors())
