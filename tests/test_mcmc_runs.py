"""End-to-end chain-runner behavior: determinism on the sequential and the
threaded path, bookkeeping, degenerate reductions, initialization failure
reporting, and stopping every chain when one fails."""
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import meadjust.mcmc as mcmc
from meadjust import (
    CohortConfig,
    GammaParams,
    InitializationError,
    McmcConfig,
    ModelSpec,
    ParameterError,
    Rng,
    fit_linear,
    fit_logistic,
    run_chains,
    simulate_cohort,
    write_traces,
)
from meadjust.experiment import adjust_cell
from meadjust.priors import NormalPrior, PriorSet, linear_priors, logistic_priors


def _flat_linear_priors():
    return PriorSet(
        coeff0=NormalPrior(0.0, 1e6),
        coeff=NormalPrior(0.0, 1e6),
        mu_x=NormalPrior(0.0, 1e6),
        tau_x=GammaParams(0.01, 100.0),
        tau_e=GammaParams(0.01, 100.0),
        tau_eps=GammaParams(0.01, 100.0),
    )


def _batch_mcse(draws, n_batches=40):
    batches = draws[: len(draws) // n_batches * n_batches].reshape(n_batches, -1).mean(axis=1)
    return batches.std(ddof=1) / math.sqrt(n_batches)


def test_mcmc_config_validation():
    with pytest.raises(ParameterError):
        McmcConfig(thin=0)
    with pytest.raises(ParameterError):
        McmcConfig(keep=1000, thin=3)
    with pytest.raises(ParameterError):
        McmcConfig(n_chains=0)
    with pytest.raises(ParameterError):
        McmcConfig(init_strategy="hopeful")
    for field, value in (("burn_in", -1), ("keep", 0), ("seed", -1)):
        with pytest.raises(ParameterError, match=field):
            McmcConfig(**{field: value})
    for field in ("n_chains", "burn_in", "keep", "thin", "seed"):
        for value in (2.0, True):
            with pytest.raises(ParameterError, match=field):
                McmcConfig(**{field: value})
    assert McmcConfig(n_chains=np.int64(2), seed=np.uint64(7)).n_chains == 2
    assert McmcConfig(keep=1000, thin=10).n_retained == 100


@pytest.mark.parametrize("threaded", [False, True], ids=["sequential", "threaded"])
def test_run_chains_bit_reproducible(threaded, monkeypatch):
    if threaded:
        monkeypatch.setattr(mcmc, "_THREADED_MIN_N", 0)
    cohort = simulate_cohort(CohortConfig(n=150, seed=1))
    spec = ModelSpec.from_cohort(cohort, "linear", linear_priors("typeA"))
    cfg = McmcConfig(n_chains=2, burn_in=100, keep=400, thin=4, seed=9)
    a = run_chains(spec, cfg, stream=(5,))
    b = run_chains(spec, cfg, stream=(5,))
    for name in a.param_names:
        for ca, cb in zip(a.chain_arrays(name), b.chain_arrays(name)):
            assert np.array_equal(ca, cb)
    c = run_chains(spec, cfg, stream=(6,))
    assert not np.array_equal(a.pooled("beta"), c.pooled("beta"))


def test_retained_count_and_param_names():
    cohort = simulate_cohort(CohortConfig(n=120, seed=2))
    cfg = McmcConfig(n_chains=3, burn_in=50, keep=300, thin=3, seed=1)
    lin = run_chains(ModelSpec.from_cohort(cohort, "linear", linear_priors()), cfg)
    assert lin.n_retained == 100
    assert lin.param_names == ["beta0", "beta", "tau_eps", "tau_e", "mu_x", "tau_x"]
    assert all(len(ch["beta"]) == 100 for ch in lin.chains)
    logi = run_chains(ModelSpec.from_cohort(cohort, "logistic", logistic_priors()), cfg)
    assert logi.param_names == ["alpha0", "alpha", "tau_e", "mu_x", "tau_x"]
    # the linear priors put a lognormal prior on the exposure location
    for samples, blocks in ((lin, {"latent", "mu_x", "structural"}), (logi, {"latent", "coeffs", "structural"})):
        assert len(samples.acceptance_rates) == cfg.n_chains
        for rates in samples.acceptance_rates:
            assert set(rates) == blocks
            assert all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in rates.values())


def test_chains_differ_only_in_coefficient_starts():
    cohort = simulate_cohort(CohortConfig(n=100, seed=3))
    spec = ModelSpec.from_cohort(cohort, "linear", linear_priors())
    states = [
        mcmc.initial_state(spec, "paper_replication", c, Rng(0, (c,))) for c in range(3)
    ]
    assert len({s.coeff for s in states}) == 3
    for s in states[1:]:
        assert s.tau_e == states[0].tau_e
        assert s.tau_x == states[0].tau_x
        assert s.mu_x == states[0].mu_x
        assert np.array_equal(s.l, states[0].l)


# A tau_e prior with mean 1e12 and sd 1e9 pins the latent exposures to log w.
_NO_ERROR_TAU_E = GammaParams(1e6, 1e6)


def test_no_measurement_error_reduction_linear():
    """A tau_e prior concentrated at 1e12 reduces the engine to Bayesian
    linear regression on log w; under flat priors the posterior mean matches
    OLS within 3 Monte Carlo standard errors."""
    cohort = simulate_cohort(CohortConfig(n=2000, beta_true=0.3, seed=4))
    priors = replace(_flat_linear_priors(), tau_e=_NO_ERROR_TAU_E)
    spec = ModelSpec.from_cohort(cohort, "linear", priors, exposure_transform="log")
    cfg = McmcConfig(n_chains=2, burn_in=500, keep=4000, thin=2, seed=11, init_strategy="naive_start")
    samples = run_chains(spec, cfg)
    beta = samples.pooled("beta")
    fit = fit_linear(np.log(cohort.w_obs), cohort.y)
    mcse = _batch_mcse(beta)
    assert abs(beta.mean() - fit.slope) < 3.0 * mcse + 1e-12


def test_no_measurement_error_reduction_logistic():
    cohort = simulate_cohort(CohortConfig(n=2000, alpha_true=0.8, seed=5))
    priors = PriorSet(
        coeff0=NormalPrior(0.0, 1e6),
        coeff=NormalPrior(0.0, 1e6),
        mu_x=NormalPrior(0.0, 1e6),
        tau_x=GammaParams(0.01, 100.0),
        tau_e=_NO_ERROR_TAU_E,
        tau_eps=None,
    )
    spec = ModelSpec.from_cohort(cohort, "logistic", priors, exposure_transform="log")
    cfg = McmcConfig(n_chains=2, burn_in=2000, keep=20_000, thin=4, seed=12, init_strategy="naive_start")
    samples = run_chains(spec, cfg)
    alpha = samples.pooled("alpha")
    fit = fit_logistic(np.log(cohort.w_obs), cohort.z)
    assert fit.converged
    mcse = _batch_mcse(alpha)
    assert abs(alpha.mean() - fit.slope) < 3.0 * mcse


def test_initialization_error_names_parameter():
    cohort = simulate_cohort(CohortConfig(n=50, seed=6))
    # non-finite data is rejected by ModelSpec; a finite but huge exposure
    # still overflows the squared residual of the linear outcome term
    huge_w = cohort.w_obs.copy()
    huge_w[0] = 1e200
    spec = ModelSpec(
        kind="linear",
        w=huge_w,
        outcome=cohort.y,
        priors=linear_priors(),
    )
    cfg = McmcConfig(n_chains=1, burn_in=10, keep=10, thin=1, seed=0)
    with pytest.raises(InitializationError, match="outcome"):
        run_chains(spec, cfg)


def test_initialization_failure_precedes_every_scan(monkeypatch):
    """With the chains on threads, every starting state is still built
    before any chain scans, so a failing start raises before the first
    scan of any chain."""
    monkeypatch.setattr(mcmc, "_THREADED_MIN_N", 0)
    cohort = simulate_cohort(CohortConfig(n=50, seed=6))
    huge_w = cohort.w_obs.copy()
    huge_w[0] = 1e200
    spec = ModelSpec(kind="linear", w=huge_w, outcome=cohort.y, priors=linear_priors())
    scans = []
    scan = mcmc._scan

    def counting_scan(state, spec, cache=None):
        scans.append(state.rng.stream)
        return scan(state, spec, cache)

    monkeypatch.setattr(mcmc, "_scan", counting_scan)
    with pytest.raises(InitializationError, match="outcome"):
        run_chains(spec, McmcConfig(n_chains=3, burn_in=10, keep=10, thin=1, seed=0))
    assert scans == []


def test_chain_failure_stops_every_chain(monkeypatch):
    """An exception in chain 1, on a pool thread, at its third scan reaches
    the caller as it was raised, and chain 0, on the calling thread, stops
    within a few scans instead of running its 20 000 (or before its first,
    when chain 1 fails first)."""
    monkeypatch.setattr(mcmc, "_chain_workers", lambda n, n_chains: n_chains)
    cohort = simulate_cohort(CohortConfig(n=50, seed=10))
    spec = ModelSpec.from_cohort(cohort, "linear", linear_priors())
    cfg = McmcConfig(n_chains=2, burn_in=0, keep=20_000, thin=1000, seed=1)
    scans = {0: 0, 1: 0}
    threads = {}
    raised = []
    scan = mcmc._scan

    def failing_scan(state, spec, cache=None):
        chain = state.rng.stream[-1]
        scans[chain] += 1
        threads[chain] = threading.get_ident()
        if chain == 1 and scans[1] == 3:
            raised.append(RuntimeError("chain 1 fails at scan 3"))
            raise raised[0]
        return scan(state, spec, cache)

    monkeypatch.setattr(mcmc, "_scan", failing_scan)
    with pytest.raises(RuntimeError, match="chain 1 fails at scan 3") as excinfo:
        run_chains(spec, cfg)
    assert excinfo.value is raised[0]
    assert threads[1] != threading.get_ident()
    assert scans[0] < cfg.keep // 10


_BLAS_PROBE = """
import hashlib
from meadjust import CohortConfig, McmcConfig, ModelSpec, run_chains, simulate_cohort
from meadjust.experiment import priors_for
cohort = simulate_cohort(CohortConfig(n=30_000, seed=61))
digest = hashlib.sha256()
for k, kind in enumerate(("linear", "logistic")):
    spec = ModelSpec.from_cohort(cohort, kind, priors_for(kind, "typeB"))
    samples = run_chains(spec, McmcConfig(n_chains=2, burn_in=10, keep=20, thin=1, seed=67), stream=(k,))
    for chain in samples.chains:
        for draws in chain.values():
            digest.update(draws.tobytes())
print(digest.hexdigest())
"""


def test_draws_do_not_depend_on_blas_threads():
    """Draws at n=30 000, where a plain BLAS dot product of two n-arrays
    runs on as many threads as BLAS is given and sums in another order, are
    the same with one BLAS thread and with two. On a machine with one CPU
    BLAS runs one thread either way, and the test passes trivially."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcmc.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True, text=True, check=True, timeout=600
        )
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


def test_dot_is_plain_blas_up_to_a_slice():
    """_dot is exactly a @ b up to _DOT_SLICE elements, and a dot product
    to rounding beyond."""
    gen = np.random.default_rng(79)
    for n in (0, 1, 1000, mcmc._DOT_SLICE, mcmc._DOT_SLICE + 1, 30_000):
        a, b = gen.normal(size=n), gen.normal(size=n)
        if n <= mcmc._DOT_SLICE:
            assert mcmc._dot(a, b) == float(a @ b)
        assert abs(mcmc._dot(a, b) - math.fsum(a * b)) <= 1e-12 * float(np.abs(a * b).sum())


def test_chain_workers_follow_the_cohort_size(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert mcmc._chain_workers(mcmc._THREADED_MIN_N - 1, 3) == 1
    assert mcmc._chain_workers(mcmc._THREADED_MIN_N, 3) == 2
    assert mcmc._chain_workers(mcmc._THREADED_MIN_N, 1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert mcmc._chain_workers(10 * mcmc._THREADED_MIN_N, 3) == 1


def test_spec_hides_true_exposure():
    cohort = simulate_cohort(CohortConfig(n=80, seed=7))
    spec = ModelSpec.from_cohort(cohort, "linear", linear_priors())
    assert not hasattr(spec, "x_true")
    assert np.array_equal(spec.w, cohort.w_obs)


def test_small_null_run_contains_zero():
    cohort = simulate_cohort(CohortConfig(n=400, seed=8))
    spec = ModelSpec.from_cohort(cohort, "linear", linear_priors("uninformative"))
    cfg = McmcConfig(n_chains=2, burn_in=500, keep=2000, thin=4, seed=13)
    samples = run_chains(spec, cfg)
    beta = samples.pooled("beta")
    lo, hi = np.percentile(beta, [2.5, 97.5])
    assert lo <= 0.0 <= hi


def test_rhat_scale_of_mu_x_follows_its_prior():
    """mu_x is diagnosed on the log scale only under the lognormal prior
    that keeps it positive, however positive the draws of a normal-prior
    cell happen to be."""
    cohort = simulate_cohort(CohortConfig(n=300, mu_x=1.0, seed=5))
    cfg = McmcConfig(n_chains=2, burn_in=100, keep=200, thin=2, seed=1)
    for kind, mu_x_normal, label in (
        ("logistic", False, "mu_x"),
        ("linear", True, "mu_x"),
        ("linear", False, "log(mu_x)"),
    ):
        cell = adjust_cell(cohort, kind, "uninformative", cfg, mu_x_normal=mu_x_normal)
        assert [r.parameter for r in cell.rhats if "mu_x" in r.parameter] == [label], kind


def test_write_traces(tmp_path):
    cohort = simulate_cohort(CohortConfig(n=60, seed=9))
    spec = ModelSpec.from_cohort(cohort, "logistic", logistic_priors())
    cfg = McmcConfig(n_chains=2, burn_in=20, keep=100, thin=2, seed=14)
    samples = run_chains(spec, cfg)
    paths = write_traces(samples, tmp_path, prefix="trace_test")
    assert len(paths) == 2
    for c, path in enumerate(paths):
        data = open(path, "rb").read()
        assert data.startswith(b"alpha0,alpha,tau_e,mu_x,tau_x\r\n")
        rows = data.decode("utf-8").strip().split("\r\n")
        assert rows[0].split(",") == samples.param_names
        assert len(rows) - 1 == samples.n_retained
        first = [float(v) for v in rows[1].split(",")]
        expected = [samples.chains[c][n][0] for n in samples.param_names]
        assert first == expected
