"""Behavioral oracles for the Metropolis updates."""
import math

import numpy as np

import meadjust.mcmc as mcmc
from meadjust import GammaParams, ModelSpec, Rng, fit_logistic
from meadjust.priors import LogNormalPrior, NormalPrior, PriorSet


def _linear_spec(w, y, priors=None, **kwargs):
    priors = priors or PriorSet(
        coeff0=NormalPrior(0.0, 100.0),
        coeff=NormalPrior(0.0, 100.0),
        mu_x=NormalPrior(0.0, 10.0),
        tau_x=GammaParams(1.0, 1.0),
        tau_e=GammaParams(1.0, 1.0),
        tau_eps=GammaParams(1.0, 1.0),
    )
    return ModelSpec(kind="linear", w=np.asarray(w, float), outcome=np.asarray(y, float), priors=priors, **kwargs)


def _state(spec, rng_seed=0, **overrides):
    state = mcmc.initial_state(spec, "paper_replication", 1, Rng(rng_seed))
    for k, v in overrides.items():
        setattr(state, k, v)
    return state


def test_latent_no_error_limit_sticks_to_log_w():
    rng = np.random.default_rng(0)
    w = rng.lognormal(size=200)
    spec = _linear_spec(w, rng.normal(size=200))
    state = _state(spec, tau_e=1e12, coeff=0.0, coeff0=0.0)
    cache = mcmc._ScanCache(state, spec)
    for _ in range(200):
        mcmc.update_latent_exposure(state, spec, cache)
    assert np.max(np.abs(state.l - spec.log_w)) < 1e-5


def test_latent_shrinkage_oracle():
    """With the outcome term flat (slope 0) and tau_e = tau_x, the latent
    stationary law is N((log w + mu_x)/2, 1/(tau_e+tau_x)) per subject."""
    rng = np.random.default_rng(2)
    w = rng.lognormal(size=400)
    spec = _linear_spec(w, np.zeros(400))
    state = _state(spec, coeff=0.0, coeff0=0.0, tau_e=1.0, tau_x=1.0, mu_x=0.8)
    cache = mcmc._ScanCache(state, spec)
    sums = np.zeros(400)
    sq_sums = np.zeros(400)
    n_sweeps = 6000
    for _ in range(500):
        mcmc.update_latent_exposure(state, spec, cache)
    for _ in range(n_sweeps):
        mcmc.update_latent_exposure(state, spec, cache)
        sums += state.l
        sq_sums += state.l**2
    avg = sums / n_sweeps
    oracle = 0.5 * (spec.log_w + 0.8)
    assert np.mean(np.abs(avg - oracle)) < 0.03
    var = sq_sums / n_sweeps - avg**2
    assert abs(var.mean() - 0.5) < 0.05


def test_logistic_coeffs_prior_recovery():
    """With no data the coefficient chain samples its N(0,10) prior."""
    priors = PriorSet(
        coeff0=NormalPrior(0.0, 10.0),
        coeff=NormalPrior(0.0, 10.0),
        mu_x=NormalPrior(0.0, 10.0),
        tau_x=GammaParams(1.0, 1.0),
        tau_e=GammaParams(1.0, 1.0),
        tau_eps=None,
    )
    spec = ModelSpec(kind="logistic", w=np.ones(0), outcome=np.zeros(0), priors=priors)
    state = mcmc.ChainState(
        coeff0=0.0,
        coeff=0.0,
        tau_eps=None,
        mu_x=0.0,
        tau_x=1.0,
        tau_e=1.0,
        l=np.zeros(0),
        rng=Rng(3),
        proposals=mcmc._default_proposals(spec),
    )
    cache = mcmc._ScanCache(state, spec)
    for i in range(20_000):  # adaptation phase
        mcmc.update_logistic_coeffs(state, spec, cache)
    state.proposals["coeffs"].freeze()
    draws = np.empty(100_000)
    for i in range(len(draws)):
        mcmc.update_logistic_coeffs(state, spec, cache)
        draws[i] = state.coeff
    assert abs(draws.mean()) < 0.1
    assert abs(draws.var() - 10.0) < 1.0


def test_logistic_coeffs_bvm_vs_mle():
    """Strong synthetic data with exposure known exactly: posterior mean of
    the slope within 3 posterior SDs of the frequentist MLE."""
    rng = np.random.default_rng(4)
    x = rng.lognormal(sigma=0.8, size=10_000)
    eta = -2.0 + 1.0 * x
    z = (rng.random(10_000) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    priors = PriorSet(
        coeff0=NormalPrior(0.0, 100.0),
        coeff=NormalPrior(0.0, 100.0),
        mu_x=NormalPrior(0.0, 10.0),
        tau_x=GammaParams(1.0, 1.0),
        tau_e=GammaParams(1.0, 1.0),
        tau_eps=None,
    )
    spec = ModelSpec(kind="logistic", w=x, outcome=z, priors=priors)
    state = _state(spec, rng_seed=5)
    state.l = np.log(x)  # exposure known: latent pinned at truth
    cache = mcmc._ScanCache(state, spec)
    for _ in range(3000):
        mcmc.update_logistic_coeffs(state, spec, cache)
    state.proposals["coeffs"].freeze()
    draws = np.empty(20_000)
    for i in range(len(draws)):
        mcmc.update_logistic_coeffs(state, spec, cache)
        draws[i] = state.coeff
    fit = fit_logistic(x, z)
    assert fit.converged
    post_sd = draws.std()
    assert abs(draws.mean() - fit.slope) < 3.0 * post_sd
    rate = state.proposals["coeffs"].rate
    assert 0.15 <= rate <= 0.45


def test_mu_tau_prior_recovery_no_data():
    spec = _linear_spec(np.ones(0), np.zeros(0))
    state = mcmc.ChainState(
        coeff0=0.0,
        coeff=0.0,
        tau_eps=1.0,
        mu_x=0.0,
        tau_x=1.0,
        tau_e=1.0,
        l=np.zeros(0),
        rng=Rng(6),
        proposals=mcmc._default_proposals(spec),
    )
    cache = mcmc._ScanCache(state, spec)
    mus = np.empty(30_000)
    taus = np.empty(30_000)
    for i in range(len(mus)):
        mcmc.update_mu_x_tau_x(state, spec, cache)
        mus[i] = state.mu_x
        taus[i] = state.tau_x
    # prior: mu ~ N(0, 10), tau ~ Gamma(1, 1)
    assert abs(mus.mean()) < 4.0 * math.sqrt(10.0 / len(mus))
    assert abs(mus.var() - 10.0) < 0.5
    assert abs(taus.mean() - 1.0) < 0.05
    assert abs(taus.var() - 1.0) < 0.1


def test_mu_tau_conjugate_oracle_strong_data():
    rng = np.random.default_rng(7)
    l = rng.normal(0.3, 1.0, size=100_000)
    spec = _linear_spec(np.exp(l), np.zeros(100_000))
    state = _state(spec, rng_seed=8)
    state.l = l.copy()
    cache = mcmc._ScanCache(state, spec)
    mus, taus = [], []
    for i in range(600):
        mcmc.update_mu_x_tau_x(state, spec, cache)
        if i >= 100:
            mus.append(state.mu_x)
            taus.append(state.tau_x)
    assert abs(np.mean(mus) - 0.3) < 0.02
    assert abs(np.mean(taus) - 1.0) < 0.05


def test_mu_lognormal_prior_washout_matches_normal():
    """1e5-strong data at a positive location: the lognormal-prior variant
    agrees with the normal-prior variant to MC error."""
    rng = np.random.default_rng(9)
    l = rng.normal(0.3, 1.0, size=100_000)
    results = {}
    for prior in (NormalPrior(0.0, 100.0), LogNormalPrior(0.0, 100.0)):
        priors = PriorSet(
            coeff0=NormalPrior(0.0, 100.0),
            coeff=NormalPrior(0.0, 100.0),
            mu_x=prior,
            tau_x=GammaParams(1.0, 1.0),
            tau_e=GammaParams(1.0, 1.0),
            tau_eps=GammaParams(1.0, 1.0),
        )
        spec = _linear_spec(np.exp(l), np.zeros(100_000), priors=priors)
        state = _state(spec, rng_seed=10)
        state.l = l.copy()
        if isinstance(prior, LogNormalPrior):
            state.mu_x = 1.0
        cache = mcmc._ScanCache(state, spec)
        mus = []
        for i in range(2500):
            mcmc.update_mu_x_tau_x(state, spec, cache)
            if i >= 500:
                mus.append(state.mu_x)
        results[type(prior).__name__] = np.mean(mus)
    assert abs(results["NormalPrior"] - 0.3) < 0.02
    assert abs(results["LogNormalPrior"] - results["NormalPrior"]) < 0.02


def test_population_log_ratio_matches_the_sum_of_squares():
    """The O(1) change in the population log density when mu_x moves equals
    the O(n) difference of the two sums of squares, on random states."""
    gen = np.random.default_rng(61)
    for _ in range(200):
        n = int(gen.integers(2, 5000))
        l = gen.normal(gen.normal(0.0, 3.0), gen.uniform(0.1, 3.0), size=n)
        tau_x = gen.gamma(2.0, 1.0)
        mu = math.exp(gen.normal(0.0, 1.5))
        mu_prop = mu * math.exp(0.5 * gen.normal())
        dev, dev_prop = l - mu, l - mu_prop
        ref = -0.5 * tau_x * (float(dev_prop @ dev_prop) - float(dev @ dev))
        got = mcmc._population_log_ratio(n, float(l.sum()), tau_x, mu, mu_prop)
        assert abs(got - ref) <= 1e-9 * abs(ref)


def test_population_log_ratio_overflow_rejects():
    """A location at the exp cap overflows the closed form: the log ratio is
    -inf (from a finite location) or NaN (from the cap itself), and the
    Metropolis decision rejects it."""
    l = np.random.default_rng(67).normal(size=100_000)
    cap = math.exp(mcmc._EXP_CAP)
    for mu, mu_prop in ((1.0, cap), (cap, cap)):
        logr = mcmc._population_log_ratio(len(l), float(l.sum()), 1.0, mu, mu_prop)
        assert logr == -math.inf or math.isnan(logr)
        assert not mcmc._mh_accept(Rng(0), logr)


def test_mu_x_walk_never_underflows_to_zero():
    """A lognormal mu_x prior wide enough that the log-axis walk steps below
    a = -745, where exp(a) underflows to 0: such steps reject, so mu_x stays
    positive and the next step can take its log."""
    w = np.random.default_rng(71).lognormal(size=1000)
    priors = PriorSet(
        coeff0=NormalPrior(0.0, 100.0),
        coeff=NormalPrior(0.0, 100.0),
        mu_x=LogNormalPrior(0.0, 1e6),
        tau_x=GammaParams(1.0, 1.0),
        tau_e=GammaParams(1.0, 1.0),
        tau_eps=GammaParams(1.0, 1.0),
    )
    spec = _linear_spec(w, np.zeros(1000), priors=priors)
    state = _state(spec, rng_seed=73)
    state.proposals["mu_x"].scale = 2000.0
    state.proposals["mu_x"].freeze()  # every step at this scale
    cache = mcmc._ScanCache(state, spec)
    for _ in range(50):
        mcmc.update_mu_x_tau_x(state, spec, cache)
        assert state.mu_x > 0.0
    assert state.proposals["mu_x"].accepted > 0


def test_proposal_adapts_on_its_own_scan_count():
    """The step size moves only after the 49th, 99th, ... record, the
    covariance factor only at update counts 100, 125, ...; neither moves
    once frozen."""
    proposal = mcmc.Proposal(scale=1.0, target=0.44)
    scales = [proposal.scale]
    for _ in range(120):
        proposal.record(0, 1)
        scales.append(proposal.scale)
    assert [i for i in range(1, 121) if scales[i] != scales[i - 1]] == [49, 99]
    proposal.freeze()
    for _ in range(100):
        proposal.record(0, 1)
    assert proposal.scale == scales[-1] and proposal.attempts == 100

    proposal = mcmc.Proposal(scale=1.0, target=0.234, dim=2)
    x = np.random.default_rng(5).normal(size=(140, 2))
    refreshed = []
    for count in range(1, 141):
        chol = proposal.chol
        proposal.update_cov(x[count - 1])
        if proposal.chol is not chol:
            refreshed.append(count)
    assert refreshed == [100, 125]
    proposal.freeze()
    chol = proposal.chol
    for _ in range(50):
        proposal.update_cov(x[0])
    assert proposal.chol is chol and proposal.count == 140
