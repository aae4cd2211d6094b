"""The scan's carried cache: the covariate t = spec.covariate(l) and the
per-subject outcome terms at the current state. Carrying them must leave
every draw unchanged, and the cache must equal a fresh evaluation after
every block that moves the state."""
import hashlib
import math
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
    fresh_t = spec.covariate(state.l)
    assert np.array_equal(cache.t, fresh_t)
    assert np.array_equal(cache.terms, mcmc._outcome_terms(state, spec, fresh_t, state.coeff0, state.coeff))


@pytest.mark.parametrize("mu_x_family", ["lognormal", "normal"])
@pytest.mark.parametrize("transform", ["identity", "log"])
@pytest.mark.parametrize("kind", ["linear", "logistic"])
def test_carried_cache_equals_a_fresh_evaluation(kind, transform, mu_x_family):
    """After every scan the carried (t, terms) equal covariate(l) and the
    outcome terms evaluated afresh, through scans where the latent block and
    the ridge move each accept and reject."""
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
    cache = None
    for _ in range(150):
        cache = mcmc._scan(state, spec, cache)
        _assert_cache_is_fresh(state, spec, cache)
    for block in ("latent", "structural"):
        proposal = state.proposals[block]
        assert 0 < proposal.accepted < proposal.attempts, block


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

    def recording(state, spec, t, coeff0, coeff, *spares):
        with np.errstate(over="ignore"):
            if not np.isfinite(coeff0 + coeff * t).all():
                overflowed.append((float(coeff0), float(coeff)))
        return outcome_terms(state, spec, t, coeff0, coeff, *spares)

    monkeypatch.setattr(mcmc, "_outcome_terms", recording)
    cache = None
    for _ in range(4):
        cache = mcmc._scan(state, spec, cache)
        assert all(math.isfinite(v) for v in (state.coeff0, state.coeff, state.mu_x, state.tau_x, state.tau_e))
        assert np.isfinite(state.l).all()
        assert (state.coeff0, state.coeff) not in overflowed
        assert np.isfinite(cache.terms).all()
        _assert_cache_is_fresh(state, spec, cache)
    assert overflowed
    assert (state.l > mcmc._EXP_CAP).any()
    assert state.proposals["latent"].accepted > 0


# A chain holds l, t and the outcome terms, and its cache five spare
# n-arrays: the most any block writes its intermediates into at once (the
# latent block: the conditional mean, the proposal, the linear predictor,
# the softplus work array and the proposal terms; then the uniforms and the
# terms difference). A steady-state scan allocates only the latent block's
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
        cache = None
        for _ in range(3):
            cache = mcmc._scan(state, spec, cache)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        cache = mcmc._scan(state, spec, cache)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_array <= PEAK_N_ARRAYS
    assert (peak - before) / n_array <= SCAN_N_ARRAYS
