"""End-to-end chain-runner behavior: determinism on the sequential and the
threaded path, bookkeeping, degenerate reductions, initialization failure
reporting, and stopping every chain when one fails."""
import concurrent.futures
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import meadjust.mcmc as mcmc
import meadjust.naive as naive
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
from meadjust.experiment import adjust_cell, priors_for
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
    with pytest.raises(ParameterError, match=r"'Linear'.*\('linear', 'logistic'\)"):
        priors_for("Linear", "typeA")


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

    def counting_scan(state, spec, cache):
        scans.append(state.rng.stream)
        scan(state, spec, cache)

    monkeypatch.setattr(mcmc, "_scan", counting_scan)
    with pytest.raises(InitializationError, match="outcome"):
        run_chains(spec, McmcConfig(n_chains=3, burn_in=10, keep=10, thin=1, seed=0))
    assert scans == []


def test_chain_failure_stops_every_chain(monkeypatch):
    """Six chains on two threads: an exception in chain 1, on the pool
    thread, at its third scan reaches the caller as it was raised, chain 0,
    on the calling thread, stops within a few scans instead of running its
    20 000 (or before its first, when chain 1 fails first), only the two
    threads' caches are built, and chains 2 to 5 never scan."""
    monkeypatch.setattr(mcmc, "_chain_workers", lambda n, n_chains: 2)
    cohort = simulate_cohort(CohortConfig(n=50, seed=10))
    spec = ModelSpec.from_cohort(cohort, "linear", linear_priors())
    cfg = McmcConfig(n_chains=6, burn_in=0, keep=20_000, thin=1000, seed=1)
    scans = dict.fromkeys(range(6), 0)
    threads = {}
    raised = []
    built = []
    scan = mcmc._scan

    class RecordingCache(mcmc._ScanCache):
        def __init__(self, state, spec):
            built.append(state.rng.stream[-1])
            super().__init__(state, spec)

    def failing_scan(state, spec, cache):
        chain = state.rng.stream[-1]
        scans[chain] += 1
        threads[chain] = threading.get_ident()
        if chain == 1 and scans[1] == 3:
            raised.append(RuntimeError("chain 1 fails at scan 3"))
            raise raised[0]
        scan(state, spec, cache)

    monkeypatch.setattr(mcmc, "_scan", failing_scan)
    monkeypatch.setattr(mcmc, "_ScanCache", RecordingCache)
    with pytest.raises(RuntimeError, match="chain 1 fails at scan 3") as excinfo:
        run_chains(spec, cfg)
    assert excinfo.value is raised[0]
    assert threads[1] != threading.get_ident()
    assert scans[0] < cfg.keep // 10
    assert sorted(built) == [0, 1]
    assert [scans[c] for c in range(2, 6)] == [0, 0, 0, 0]


def test_interrupt_while_waiting_stops_the_pool_chain(monkeypatch):
    """An interrupt of the calling thread while it waits for chain 1, on a
    pool thread, reaches the caller, and chain 1 stops within a scan
    instead of running to its last. The autouse no_leaked_threads fixture
    checks that the pool thread has ended when run_chains returns."""
    monkeypatch.setattr(mcmc, "_chain_workers", lambda n, n_chains: 2)
    cohort = simulate_cohort(CohortConfig(n=50, seed=10))
    spec = ModelSpec.from_cohort(cohort, "linear", linear_priors())
    cfg = McmcConfig(n_chains=2, burn_in=0, keep=2000, thin=100, seed=1)
    scans = {0: 0, 1: 0}
    scan = mcmc._scan

    def slow_scan(state, spec, cache):
        chain = state.rng.stream[-1]
        scans[chain] += 1
        if chain == 1:
            time.sleep(0.002)
        scan(state, spec, cache)

    def interrupted(future, timeout=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(mcmc, "_scan", slow_scan)
    monkeypatch.setattr(concurrent.futures.Future, "result", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_chains(spec, cfg)
    assert scans[0] == cfg.keep
    assert scans[1] < cfg.keep


def test_one_chain_more_than_threads_waits_for_no_pool_chain(monkeypatch):
    """Three chains, and four, on two threads: chain 2, on the calling
    thread, starts as soon as chain 0 ends, while chain 1 on the pool thread
    is still running."""
    monkeypatch.setattr(mcmc, "_chain_workers", lambda n, n_chains: 2)
    cohort = simulate_cohort(CohortConfig(n=50, seed=10))
    spec = ModelSpec.from_cohort(cohort, "linear", linear_priors())
    scan = mcmc._scan
    for n_chains in (3, 4):
        cfg = McmcConfig(n_chains=n_chains, burn_in=0, keep=200, thin=100, seed=1)
        scans = dict.fromkeys(range(n_chains), 0)
        chain_1_scans_when_2_starts = []

        def slow_scan(state, spec, cache):
            chain = state.rng.stream[-1]
            if chain == 2 and not scans[2]:
                chain_1_scans_when_2_starts.append(scans[1])
            scans[chain] += 1
            if chain == 1:
                time.sleep(0.002)
            scan(state, spec, cache)

        monkeypatch.setattr(mcmc, "_scan", slow_scan)
        run_chains(spec, cfg)
        assert scans == dict.fromkeys(range(n_chains), cfg.keep), n_chains
        assert chain_1_scans_when_2_starts[0] < cfg.keep // 2, n_chains


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


_NAIVE_START_PROBE = """
from meadjust import CohortConfig, ModelSpec, Rng, simulate_cohort
from meadjust.experiment import priors_for
from meadjust.mcmc import initial_state
cohort = simulate_cohort(CohortConfig(n=30_000, seed=61))
for kind in ("linear", "logistic"):
    spec = ModelSpec.from_cohort(cohort, kind, priors_for(kind, "typeB"))
    state = initial_state(spec, "naive_start", 1, Rng(67, (0,)))
    print(kind, repr(state.coeff0), repr(state.coeff), repr(state.tau_eps))
"""


def _probe_under_blas_threads(probe: str) -> list[str]:
    """The probe's output when run with one BLAS thread and with two."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mcmc.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
        }
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=600
        )
        outputs.append(done.stdout.strip())
    return outputs


def test_draws_do_not_depend_on_blas_threads():
    """Draws at n=30 000, where a plain BLAS dot product of two n-arrays
    runs on as many threads as BLAS is given and sums in another order, are
    the same with one BLAS thread and with two. On a machine with one CPU
    BLAS runs one thread either way, and the test passes trivially."""
    digests = _probe_under_blas_threads(_BLAS_PROBE)
    assert digests[0] == digests[1]


def test_naive_start_does_not_depend_on_blas_threads():
    """The naive fits that naive_start begins from sum over the subjects in
    fixed slices too, so at n=30 000 the linear and the logistic starts are
    the same with one BLAS thread and with two (trivially so with one CPU)."""
    starts = _probe_under_blas_threads(_NAIVE_START_PROBE)
    assert starts[0] == starts[1]


def test_dot_is_plain_blas_up_to_a_slice():
    """_dot is exactly a.T @ b up to _DOT_SLICE subjects, for vectors and
    for the logistic fit's two-column design, and the same product to
    rounding beyond."""
    gen = np.random.default_rng(79)
    for n in (0, 1, 1000, naive._DOT_SLICE, naive._DOT_SLICE + 1, 30_000):
        a, b = gen.normal(size=n), gen.normal(size=n)
        X = np.column_stack([np.ones(n), gen.lognormal(size=n)])
        if n <= naive._DOT_SLICE:
            assert naive._dot(a, b) == float(a @ b)
            assert np.array_equal(naive._dot(X, b), X.T @ b)
            assert np.array_equal(naive._dot(X, X * a[:, None]), X.T @ (X * a[:, None]))
        assert isinstance(naive._dot(a, b), float)
        assert abs(naive._dot(a, b) - math.fsum(a * b)) <= 1e-12 * float(np.abs(a * b).sum())
        scale = np.abs(X).T @ np.abs(X * a[:, None])
        assert np.all(np.abs(naive._dot(X, X * a[:, None]) - X.T @ (X * a[:, None])) <= 1e-12 * scale)


def test_chains_run_round_robin_over_the_threads(monkeypatch):
    """With 4 chains on 2 threads the calling thread runs chains 0 and 2 and
    the pool thread chains 1 and 3, the calling thread builds both threads'
    scan caches, each thread restarts its own cache for its second chain,
    and the draws are those of the sequential run."""
    cohort = simulate_cohort(CohortConfig(n=60, seed=12))
    spec = ModelSpec.from_cohort(cohort, "logistic", logistic_priors("typeB"))
    cfg = McmcConfig(n_chains=4, burn_in=20, keep=40, thin=2, seed=13)
    sequential = run_chains(spec, cfg, stream=(3,))
    threads = {}
    built = []
    started = {}  # chain -> the thread that started a cache at its state
    scan = mcmc._scan

    class RecordingCache(mcmc._ScanCache):
        def __init__(self, state, spec):
            built.append(threading.get_ident())
            super().__init__(state, spec)

        def start(self, state, spec):
            started[state.rng.stream[-1]] = threading.get_ident()
            super().start(state, spec)

    def recording_scan(state, spec, cache):
        threads.setdefault(state.rng.stream[-1], set()).add(threading.get_ident())
        scan(state, spec, cache)

    monkeypatch.setattr(mcmc, "_scan", recording_scan)
    monkeypatch.setattr(mcmc, "_ScanCache", RecordingCache)
    monkeypatch.setattr(mcmc, "_chain_workers", lambda n, n_chains: 2)
    threaded = run_chains(spec, cfg, stream=(3,))
    caller = {threading.get_ident()}
    assert threads[0] == threads[2] == caller
    assert len(threads[1]) == 1 and threads[1] == threads[3] != caller
    assert built == [threading.get_ident()] * 2
    assert {started[c] for c in (0, 1, 2)} == caller
    assert {started[3]} == threads[3]
    for name in sequential.param_names:
        for a, b in zip(sequential.chain_arrays(name), threaded.chain_arrays(name)):
            assert np.array_equal(a, b)
    assert sequential.acceptance_rates == threaded.acceptance_rates


# SHA-256, as test_scan_cache._draws_sha256 computes it, of both kinds'
# draws at n=2000, recorded when the one-thread schedule had a code path of
# its own.
ONE_WORKER_DRAWS_SHA256 = "69bb082cf6bb276038625fcc1128ec2f6a90f9a6089626264ea2fb1834fab821"


def test_one_worker_starts_no_thread(monkeypatch):
    """Below _THREADED_MIN_N subjects the calling thread runs every chain,
    no thread starts, and the draws are those of the sequential run."""
    from test_scan_cache import _draws_sha256

    cohort = simulate_cohort(CohortConfig(n=2000, seed=10))
    cfg = McmcConfig(n_chains=3, burn_in=20, keep=40, thin=2, seed=83)
    runs = [
        (ModelSpec.from_cohort(cohort, "linear", linear_priors("typeB")), cfg, (0,)),
        (ModelSpec.from_cohort(cohort, "logistic", logistic_priors("typeB")), cfg, (1,)),
    ]

    def no_start(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    assert _draws_sha256(runs) == ONE_WORKER_DRAWS_SHA256


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
        data = Path(path).read_bytes()
        assert data.startswith(b"alpha0,alpha,tau_e,mu_x,tau_x\r\n")
        rows = data.decode("utf-8").strip().split("\r\n")
        assert rows[0].split(",") == samples.param_names
        assert len(rows) - 1 == samples.n_retained
        first = [float(v) for v in rows[1].split(",")]
        expected = [samples.chains[c][n][0] for n in samples.param_names]
        assert first == expected
