"""The scan's carried cache: the covariate t = spec.covariate(l) and the
per-subject outcome terms at the current state. Carrying them must leave
every draw unchanged, and the cache must equal a fresh evaluation after
every block that moves the state."""
import hashlib
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import meadjust.mcmc as mcmc
from meadjust import CohortConfig, McmcConfig, ModelSpec, Rng, run_chains, simulate_cohort
from meadjust.priors import LogNormalPrior, linear_priors, logistic_priors


def _draws_sha256(runs) -> str:
    """SHA-256 over each run's draws (chain by chain, parameter by
    parameter) and the acceptance rate of each block per chain."""
    digest = hashlib.sha256()
    for spec, cfg, stream in runs:
        samples = run_chains(spec, cfg, stream=stream)
        for chain, rates in zip(samples.chains, samples.acceptance_rates):
            for name, draws in chain.items():
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(draws, dtype=float).tobytes())
            for block, rate in rates.items():
                digest.update(block.encode())
                digest.update(np.float64(rate).tobytes())
    return digest.hexdigest()


def _pinned_runs(config: str):
    """(spec, McmcConfig, stream) of each run of one pinned configuration."""
    cohort = simulate_cohort(CohortConfig(n=300, seed=17))
    cfg = McmcConfig(n_chains=2, burn_in=100, keep=200, thin=2, seed=23)
    if config == "mu_x_normal":
        return [(ModelSpec.from_cohort(cohort, "linear", linear_priors("typeC", mu_x_normal=True)), cfg, (0,))]
    if config == "log_transform":
        transform, variant = "log", "typeB"
    else:
        transform, variant = "identity", "typeA"
        cfg = replace(cfg, init_strategy="naive_start")
    kinds = (("linear", linear_priors(variant)), ("logistic", logistic_priors(variant)))
    return [
        (ModelSpec.from_cohort(cohort, kind, priors, exposure_transform=transform), cfg, (k,))
        for k, (kind, priors) in enumerate(kinds)
    ]


# Computed with the scan that re-evaluated the covariate and the outcome at
# the current state in every block, before the scan carried them; the desk
# fingerprint (identity transform, paper_replication start, lognormal mu_x
# prior) reaches none of these paths.
PINNED_DRAWS_SHA256 = {
    "log_transform": "68978da8b9c518e742178707be3e5f8eebcb1aee2cfdb3aea68ad475c2cfa343",
    "naive_start": "2c9a6cd299be7933b724db0da6c215a97050361ca8eda31f0005895830867683",
    "mu_x_normal": "a0ab572f9fc235f9b1b1bb22fc9f7a06cc69da9b989f52ffc168d647334cc56f",
}


@pytest.mark.parametrize(
    "config, threaded",
    [pytest.param(config, False, id=config) for config in sorted(PINNED_DRAWS_SHA256)]
    + [pytest.param(config, True, id=f"{config}-threaded") for config in sorted(PINNED_DRAWS_SHA256)],
)
def test_draws_pinned_off_the_desk_grid(config, threaded, monkeypatch):
    """The pins hold on the sequential path and, with the chains on threads
    from the first subject, on the threaded one."""
    if threaded:
        monkeypatch.setattr(mcmc, "_THREADED_MIN_N", 0)
    assert _draws_sha256(_pinned_runs(config)) == PINNED_DRAWS_SHA256[config]


def _assert_cache_is_fresh(state, spec, cache):
    """The carried (t, terms) equal a fresh evaluation, t is l exactly under
    the log transform, and the five work arrays are distinct and hold none
    of l, t and the terms: a block that wrote into a slot would otherwise
    overwrite the state."""
    fresh_t = spec.covariate(state.l)
    assert np.array_equal(cache.t, fresh_t)
    assert np.array_equal(cache.terms, mcmc._outcome_terms(state, spec, fresh_t, state.coeff0, state.coeff))
    assert (cache.t is state.l) == (spec.exposure_transform == "log")
    held = {id(state.l), id(cache.t), id(cache.terms)}
    slots = {id(a) for a in cache.work}
    assert len(cache.work) == len(slots) == 5
    assert not slots & held


@pytest.mark.parametrize("mu_x_family", ["lognormal", "normal"])
@pytest.mark.parametrize("transform", ["identity", "log"])
@pytest.mark.parametrize("kind", ["linear", "logistic"])
def test_carried_cache_equals_a_fresh_evaluation(kind, transform, mu_x_family):
    """After every scan the carried (t, terms) equal covariate(l) and the
    outcome terms evaluated afresh, through scans where the latent block and
    the ridge move each accept and reject; and so they do again once the
    cache is restarted at a second chain's start, and after its scans."""
    cohort = simulate_cohort(CohortConfig(n=200, seed=29))
    if kind == "linear":
        priors = linear_priors("typeB", mu_x_normal=mu_x_family == "normal")
    else:
        priors = logistic_priors("typeB")
        if mu_x_family == "lognormal":
            priors = replace(priors, mu_x=LogNormalPrior(0.0, 100.0))
    spec = ModelSpec.from_cohort(cohort, kind, priors, exposure_transform=transform)
    state = mcmc.initial_state(spec, "paper_replication", 0, Rng(31))
    for proposal in state.proposals.values():  # acceptance counts over every scan
        proposal.freeze()
    cache = mcmc._ScanCache(state, spec)
    for _ in range(150):
        mcmc._scan(state, spec, cache)
        _assert_cache_is_fresh(state, spec, cache)
    for block in ("latent", "structural"):
        proposal = state.proposals[block]
        assert 0 < proposal.accepted < proposal.attempts, block
    state = mcmc.initial_state(spec, "paper_replication", 1, Rng(31, (1,)))
    cache.start(state, spec)
    _assert_cache_is_fresh(state, spec, cache)
    for _ in range(10):
        mcmc._scan(state, spec, cache)
        _assert_cache_is_fresh(state, spec, cache)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_saturated_identity_predictor_at_full_scale(monkeypatch):
    """Latents at and beyond the exp cap under the identity transform, at
    n=100 000: the covariate saturates at exp(_EXP_CAP), about 1e304, so a
    slope proposal of order 1e4 overflows the linear predictor. Such
    proposals reject without a numpy warning, the draws stay finite, and
    the carried terms equal a fresh evaluation."""
    n = 100_000
    gen = np.random.default_rng(41)
    log_w = gen.uniform(mcmc._EXP_CAP - 1.0, mcmc._EXP_CAP + 5.0, size=n)
    z = (gen.random(n) < 0.3).astype(float)
    spec = ModelSpec(kind="logistic", w=np.exp(log_w), outcome=z, priors=logistic_priors("typeB"))
    zbar = float(z.mean())
    state = mcmc.ChainState(
        coeff0=math.log(zbar / (1.0 - zbar)),
        coeff=1e-303,  # a linear predictor of a few units at the cap
        tau_eps=None,
        mu_x=float(spec.log_w.mean()),
        tau_x=1.0,
        tau_e=1e4,
        l=spec.log_w.copy(),
        rng=Rng(43),
        proposals=mcmc._default_proposals(spec),
    )
    mcmc._check_finite_at_init(state, spec)
    state.proposals["coeffs"].scale = 1e5  # slope steps of order 3e4

    outcome_terms = mcmc._outcome_terms
    overflowed = []

    def recording(state, spec, t, coeff0, coeff, **arrays):
        with np.errstate(over="ignore"):
            if not np.isfinite(coeff0 + coeff * t).all():
                overflowed.append((float(coeff0), float(coeff)))
        return outcome_terms(state, spec, t, coeff0, coeff, **arrays)

    monkeypatch.setattr(mcmc, "_outcome_terms", recording)
    cache = mcmc._ScanCache(state, spec)
    for _ in range(4):
        mcmc._scan(state, spec, cache)
        assert all(math.isfinite(v) for v in (state.coeff0, state.coeff, state.mu_x, state.tau_x, state.tau_e))
        assert np.isfinite(state.l).all()
        assert (state.coeff0, state.coeff) not in overflowed
        assert np.isfinite(cache.terms).all()
        _assert_cache_is_fresh(state, spec, cache)
    assert overflowed
    assert (state.l > mcmc._EXP_CAP).any()
    assert state.proposals["latent"].accepted > 0


# A chain holds l, t and the outcome terms, and its cache five work
# n-arrays: the most any block writes its intermediates into at once (the
# latent block and the ridge move: the conditional mean, the proposal, the
# proposal terms, the linear predictor and the softplus work array; the
# latent block then reuses the last two for the uniforms and the terms
# difference). A steady-state scan allocates only the latent block's
# boolean accept mask, n bytes. So the design puts the peak at
# 3 + 5 + 1/8 n-arrays, and a scan's own allocations at 1/8; each bound
# below adds 1/8 for small Python objects.
PEAK_N_ARRAYS = 8.25
SCAN_N_ARRAYS = 0.25


@pytest.mark.parametrize("kind", ["linear", "logistic"])
def test_steady_state_scan_heap(kind):
    """tracemalloc peak of one steady-state scan at n=20 000, counted in
    n-arrays of float64 from before the chain is built: the carried arrays
    stay within the design's count, and the scan allocates no n-array of
    its own."""
    n = 20_000
    cohort = simulate_cohort(CohortConfig(n=n, seed=53))
    priors = linear_priors("typeB") if kind == "linear" else logistic_priors("typeB")
    spec = ModelSpec.from_cohort(cohort, kind, priors)
    n_array = 8 * n
    tracemalloc.start()
    try:
        state = mcmc.initial_state(spec, "paper_replication", 0, Rng(59))
        cache = mcmc._ScanCache(state, spec)
        for _ in range(3):
            mcmc._scan(state, spec, cache)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        mcmc._scan(state, spec, cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_array <= PEAK_N_ARRAYS
    assert (peak - before) / n_array <= SCAN_N_ARRAYS


@pytest.mark.parametrize("transform", ["identity", "log"])
@pytest.mark.parametrize("kind", ["linear", "logistic"])
def test_cache_restart_allocates_no_n_array(kind, transform):
    """tracemalloc peak of restarting a cache, after a chain's scans, at
    the next chain's start at n=20 000: t and the outcome terms are written
    into the arrays the cache holds, so the restart allocates less than
    1/8 of an n-array."""
    n = 20_000
    cohort = simulate_cohort(CohortConfig(n=n, seed=53))
    priors = linear_priors("typeB") if kind == "linear" else logistic_priors("typeB")
    spec = ModelSpec.from_cohort(cohort, kind, priors, exposure_transform=transform)
    state = mcmc.initial_state(spec, "paper_replication", 0, Rng(59, (0,)))
    cache = mcmc._ScanCache(state, spec)
    for _ in range(3):
        mcmc._scan(state, spec, cache)
    state = mcmc.initial_state(spec, "paper_replication", 1, Rng(59, (1,)))
    tracemalloc.start()
    try:
        cache.start(state, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * n) < 1 / 8
    _assert_cache_is_fresh(state, spec, cache)


# A cell run on the calling thread holds every unstarted chain's start (l),
# the running chain's l and the one cache all its chains share: t, the
# outcome terms and five work arrays. So the design puts the peak of a
# three-chain run at 3 + 7 + 1/8 n-arrays; the bound adds 3/8 for small
# Python objects. A second cache, or a restart that allocated its arrays
# afresh, would add up to another 7.
RUN_PEAK_N_ARRAYS = 10.5

# Six chains in two lanes hold every start and the caches and accept masks
# of the two lanes: 6 + 2 * 7 + 2/8 n-arrays, and 3/8 for small Python
# objects. A third cache alive at once would add another 7.
ROUNDS_PEAK_N_ARRAYS = 20.625


def _run_peak_n_arrays(n_chains: int) -> float:
    """tracemalloc peak of a run_chains at n = _THREADED_MIN_N - 1, counted
    in n-arrays of float64."""
    n = mcmc._THREADED_MIN_N - 1
    spec = ModelSpec.from_cohort(simulate_cohort(CohortConfig(n=n, seed=53)), "linear", linear_priors("typeB"))
    tracemalloc.start()
    try:
        run_chains(spec, McmcConfig(n_chains=n_chains, burn_in=3, keep=3, thin=1, seed=59))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8 * n)


def test_calling_thread_holds_one_cache_at_a_time():
    """tracemalloc peak of a three-chain run_chains below _THREADED_MIN_N
    subjects: the calling thread runs every chain with one cache,
    restarted at each chain's start."""
    assert _run_peak_n_arrays(3) <= RUN_PEAK_N_ARRAYS


def test_rounds_hold_one_cache_per_worker(monkeypatch):
    """tracemalloc peak of six chains on two forced workers: each worker's
    lane restarts its one cache for each of its chains, so no more than two
    caches are alive at once. The pool thread's chains are slowed so that
    the calling thread's end first."""
    scan = mcmc._scan

    def slow_pool_scan(state, spec, cache):
        if state.rng.stream[-1] % 2:
            time.sleep(0.01)
        scan(state, spec, cache)

    monkeypatch.setattr(mcmc, "_chain_workers", lambda n, n_chains: 2)
    monkeypatch.setattr(mcmc, "_scan", slow_pool_scan)
    assert _run_peak_n_arrays(6) <= ROUNDS_PEAK_N_ARRAYS
