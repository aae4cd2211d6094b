"""Hierarchical Bayesian measurement-error adjustment by MCMC.

The model has three pieces: an outcome model (normal or Bernoulli) on the
latent true exposure, a lognormal measurement model linking observed to
true exposure, and a lognormal population model for true exposure. The
latent log exposures l_i = log X_i are sampled per subject; conjugate
blocks use Gibbs draws and the rest use Metropolis.

The data identify mu_x and V = 1/tau_x + 1/tau_e, but not the error share
r = (1/tau_e)/V (Gustafson 2005). The latent block proposes each l_i from
its exact no-outcome conditional and accepts on the outcome ratio alone;
the ridge move (``update_structural``) steps in logit(r) with mu_x, V and
the non-centred latents held fixed (Papaspiliopoulos, Roberts & Sköld 2007).

Each random-walk block owns one ``Proposal``: its step size, tuned towards
a target acceptance rate, and for the 2-D logistic coefficients a running
proposal covariance (Haario, Saksman & Tamminen 2001). A proposal adapts
on its own scan count, when its block records the scan's acceptances.
``_run_chain`` freezes it at burn-in, so retained draws come from a fixed
kernel; from then on it counts the acceptances that
``PosteriorSamples.acceptance_rates`` reports.

``ModelSpec`` is the sampler's one view of the data: it owns log W,
computed once, and ``covariate(l)``, the exposure the outcome model sees.
Every block takes ``(state, spec, cache)``, with the scan cache below, and
the chain state repeats nothing the spec holds. A scan runs the blocks of
``_blocks(kind)`` in turn; that order, the order of the RNG calls, is the
kernel. ``_blocks`` looks the blocks up at each call, so a wrapper set on a
module attribute, as a tracer sets, is what runs.

The scan carries a cache from block to block and from scan to scan: the
covariate t = covariate(l) and the per-subject outcome terms at the current
state, so each block evaluates the outcome only at its proposal, and a fixed
list of five work n-arrays. Each block unpacks the slots it uses under the
names of what it writes there (conditional mean, proposal, proposal terms,
linear predictor, softplus work, residuals) and writes into them with
``out=``. On acceptance the logistic coefficient step and the ridge move
swap their proposal arrays with the current ones, slot for slot; the latent
block copies the accepted entries in place. So a steady-state scan allocates
only the latent block's boolean accept mask and faults in no fresh pages.
The allocator is left as it is: a library must not tune its host process's
malloc. ``_scan`` and every block take the cache and update it in place.
``_ScanCache.start`` points a cache at another chain's starting state,
writing t and the terms into the arrays it already holds, so a chain that
follows another on the same thread reuses its cache and allocates no
n-array. A caller that changes the state between calls restarts the cache;
one that changes the spec builds a new one.

A proposal may overflow the linear predictor or the sum of the outcome
terms; the resulting inf or NaN rejects. ``_scan`` and the start check
``_check_finite_at_init`` each silence numpy's overflow and invalid-value
warnings once, around all of their work; no block does so itself.

``run_chains`` runs a cell's chains in W lanes, one per thread, the calling
thread's included: lane k runs chains k, k + W, k + 2W, ... in order, and
every chain of a lane scans with the lane's one cache, restarted at the
chain's start. From ``_THREADED_MIN_N`` subjects W is one per usable CPU
up to the number of chains, else 1, and then the calling thread runs every
chain and no pool thread starts. numpy releases the interpreter lock
inside the random fills and the ufunc loops over long arrays, which take
most of a full-scale scan; in a smaller cohort each short ufunc hands the
lock back and forth, and threads lose. The calling thread builds every
lane's cache, the pool lanes' first, and so allocates every n-array a
chain scans with: what a pool thread allocates stays in that thread's
malloc arena after it ends, and at n=100 000 that raised the peak resident
set by another 6 MB in some runs. So a cell holds at most W caches, and no
lane waits for another. A chain's draws depend only on its own stream and
state, never on the schedule. The sampler's dot products, like the naive
fits that ``naive_start`` begins from, go through ``naive._dot``, whose
result no BLAS thread setting can change: each BLAS call gets a slice of at
most ``naive._DOT_SLICE`` subjects, too few for OpenBLAS to split across
its threads, and the slices are summed in a fixed order. Up to that length
it is plain ``a @ b``, so desk-scale draws are what they were.

All acceptance decisions work on log densities; nothing is exponentiated
to linear scale, so cohorts of 10^5 subjects cannot overflow.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .cohort import Cohort, require_integers
from .errors import InitializationError, ParameterError
from .naive import _dot, expit, fit_linear, fit_logistic, logistic_terms
from .priors import LogNormalPrior, NormalPrior, PriorSet
from .rng import GammaParams, Rng, sample_gamma

__all__ = [
    "MODEL_KINDS",
    "ModelSpec",
    "McmcConfig",
    "ChainState",
    "PosteriorSamples",
    "full_conditional_coeffs_linear",
    "full_conditional_precision",
    "run_chains",
    "initial_state",
    "sample_prior_state",
    "sample_data_given_state",
]

_EXP_CAP = 700.0  # exp argument cap; overflowing proposals reject cleanly


def _safe_exp(x, out=None):
    y = np.minimum(x, _EXP_CAP, out=out)
    return np.exp(y, out=y)


def _mh_accept(rng: Rng, logr: float) -> bool:
    """Metropolis decision on a log ratio; NaN (invalid both ways) rejects."""
    if logr >= 0.0:
        return True
    if math.isnan(logr):
        return False
    return math.log(1.0 - rng.uniform()) < logr


# ---------------------------------------------------------------------------
# Model specification

MODEL_KINDS = ("linear", "logistic")


@dataclass(frozen=True)
class ModelSpec:
    """Sampler-facing view of one adjustment problem.

    Holds only the observed exposure and the outcome; true exposures never
    enter, so the sampler cannot peek at them. ``exposure_transform``
    selects the covariate the outcome model sees: the exposure itself
    ("identity", the replication default) or its log ("log", where the
    classical attenuation factor applies and signal recovery is testable).
    The spec owns log W, computed once per spec (``replace`` recomputes it),
    and ``covariate(l)``.
    """

    kind: str  # "linear" | "logistic"
    w: np.ndarray
    outcome: np.ndarray
    priors: PriorSet
    exposure_transform: str = "identity"
    log_w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")
        if self.exposure_transform not in ("identity", "log"):
            raise ParameterError(f"unknown exposure_transform {self.exposure_transform!r}")
        w = np.asarray(self.w, dtype=float)
        out = np.asarray(self.outcome, dtype=float)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "outcome", out)
        if len(w) != len(out):
            raise ParameterError("w and outcome must have equal length")
        if not (np.isfinite(w).all() and np.isfinite(out).all()):
            raise ParameterError("w and outcome must be finite")
        if np.any(w <= 0):
            raise ParameterError("observed exposures must be strictly positive")
        if self.kind == "linear" and self.priors.tau_eps is None:
            raise ParameterError("linear model requires a tau_eps prior")
        if self.kind == "logistic":
            if self.priors.tau_eps is not None:
                raise ParameterError("logistic model takes no tau_eps prior")
            if not set(np.unique(out)) <= {0.0, 1.0}:
                raise ParameterError("logistic outcome must be 0/1")
        object.__setattr__(self, "log_w", np.log(w))

    @classmethod
    def from_cohort(
        cls,
        cohort: Cohort,
        kind: str,
        priors: PriorSet,
        exposure_transform: str = "identity",
    ) -> "ModelSpec":
        outcome = cohort.y if kind == "linear" else cohort.z
        return cls(
            kind=kind,
            w=cohort.w_obs,
            outcome=np.asarray(outcome, dtype=float),
            priors=priors,
            exposure_transform=exposure_transform,
        )

    @property
    def n(self) -> int:
        return len(self.w)

    def covariate(self, l, out=None):
        """The exposure the outcome model sees at latent log exposures l,
        written into ``out`` when given; under the log transform it is l
        itself."""
        if self.exposure_transform == "identity":
            return _safe_exp(l, out)
        return l


# ---------------------------------------------------------------------------
# Chain state and per-block proposals


_ADAPT_WINDOW = 50  # scans between step-size updates during burn-in
_COV_INIT_SD = 0.3  # proposal sd per axis until a covariance is learnt


class Proposal:
    """Proposal of one Metropolis block and its adaptation.

    The step size follows a windowed Robbins-Monro rule towards ``target``,
    on the proposal's own scan count: its block records once per scan. With
    ``dim`` set, the block also learns a running proposal covariance
    (Haario-style adaptive Metropolis). Without a target there is nothing
    to adapt and the proposal only counts acceptances. ``freeze``, which
    ``_run_chain`` calls at burn-in, ends the adaptation and restarts the
    acceptance counts, which from then on cover the retained scans.
    """

    def __init__(self, scale: float | None = None, target: float | None = None, dim: int | None = None):
        self.scale = scale
        self.target = target
        self.accepted = 0.0
        self.attempts = 0
        self.scans = 0
        self.rounds = 0
        self.frozen = False
        if dim is not None:
            self.count = 0
            self.mean = np.zeros(dim)
            self.m2 = np.zeros((dim, dim))
            self.chol = _COV_INIT_SD * np.eye(dim)

    @property
    def rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else math.nan

    def record(self, accepted, attempts):
        """Count one scan's acceptances; during burn-in, adapt the step size
        after the 49th, 99th, ... scan (the off-by-one the pinned draws keep)."""
        self.accepted += float(accepted)
        self.attempts += int(attempts)
        self.scans += 1
        if not self.frozen and self.target is not None and (self.scans + 1) % _ADAPT_WINDOW == 0:
            self.rounds += 1
            step = (self.rate - self.target) / math.sqrt(self.rounds)
            self.scale *= math.exp(max(-0.7, min(0.7, step)))
            self.accepted = 0.0
            self.attempts = 0

    def step(self, rng: Rng) -> np.ndarray:
        return self.scale * (self.chol @ rng.standard_normal(len(self.mean)))

    def update_cov(self, x: np.ndarray):
        if self.frozen:
            return
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, x - self.mean)
        if self.count >= 100 and self.count % 25 == 0:
            cov = self.m2 / (self.count - 1) + 1e-9 * np.eye(len(self.mean))
            try:
                self.chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                pass

    def freeze(self):
        self.frozen = True
        self.accepted = 0.0
        self.attempts = 0


@dataclass
class ChainState:
    """Complete MCMC state for one chain."""

    coeff0: float
    coeff: float
    tau_eps: float | None
    mu_x: float
    tau_x: float
    tau_e: float
    l: np.ndarray
    rng: Rng
    proposals: dict[str, Proposal] = field(default_factory=dict)


def _default_proposals(spec: ModelSpec) -> dict[str, Proposal]:
    """One proposal per Metropolis block of the spec, in scan order."""
    proposals = {}
    if spec.kind == "logistic":
        proposals["coeffs"] = Proposal(scale=1.0, target=0.234, dim=2)
    if isinstance(spec.priors.mu_x, LogNormalPrior):
        proposals["mu_x"] = Proposal(scale=0.5, target=0.44)
    proposals["latent"] = Proposal()
    proposals["structural"] = Proposal(scale=1.0, target=0.44)
    return proposals


# ---------------------------------------------------------------------------
# Likelihood pieces


class _ScanCache:
    """What a chain carries from block to block and from scan to scan: the
    covariate t = covariate(l) and the per-subject outcome terms at the
    current state (under the log transform t is l itself), and ``work``,
    five n-arrays for the blocks' intermediates: the most one block holds at
    once. A block that swaps a proposal array with a current one puts the
    old current array into the proposal's slot, so the slots never hold l, t
    or the terms. Every float n-array a scan uses is allocated here, so a
    cache built on one thread and scanned, or restarted, on another
    allocates nothing large on the second."""

    def __init__(self, state: ChainState, spec: ModelSpec):
        self.work = [np.empty(spec.n) for _ in range(5)]
        self.t = self.terms = None
        self.start(state, spec)

    def start(self, state: ChainState, spec: ModelSpec):
        """Point the cache at a chain's starting state: t and the outcome
        terms are written into the arrays the cache holds, allocated only
        by the first start."""
        self.t = spec.covariate(state.l, out=self.t)
        eta, work = self.work[3:]
        self.terms = _outcome_terms(state, spec, self.t, state.coeff0, state.coeff, out=self.terms, eta=eta, work=work)


def _outcome_terms(state: ChainState, spec: ModelSpec, t, coeff0: float, coeff: float, out=None, eta=None, work=None):
    """Per-subject outcome log likelihood at covariate t = covariate(l) and
    coefficients (coeff0, coeff), without the linear model's normalizing
    constant (it depends on neither). The result goes into ``out``; the
    logistic model's linear predictor and softplus intermediate go into
    ``eta`` and ``work``. Each is a distinct n-array other than t, or None
    for a fresh one.

    Overflowing linear predictors propagate to -inf or NaN terms, which
    reject in any Metropolis ratio they enter; the caller silences numpy's
    warnings about them.
    """
    if spec.kind == "linear":
        terms = np.multiply(coeff, t, out=out)
        terms += coeff0
        np.subtract(spec.outcome, terms, out=terms)
        np.square(terms, out=terms)
        terms *= -0.5 * state.tau_eps
        return terms
    eta = np.multiply(coeff, t, out=eta)
    eta += coeff0
    return logistic_terms(eta, spec.outcome, out=out, work=work)


def _latent_conditional(spec: ModelSpec, mu_x: float, tau_x: float, tau_e: float, out):
    """Mean m_i, written into ``out``, and precision tau_e + tau_x of each
    latent log exposure given the measurement and population models,
    without the outcome."""
    prec = tau_e + tau_x
    m = np.multiply(tau_e, spec.log_w, out=out)
    m += tau_x * mu_x
    m /= prec
    return m, prec


# ---------------------------------------------------------------------------
# Conjugate full conditionals


def full_conditional_coeffs_linear(state: ChainState, spec: ModelSpec, t=None):
    """Exact bivariate normal full conditional of the linear (intercept,
    slope), as (mean vector, precision matrix); t is covariate(l), computed
    here when not given."""
    if spec.kind != "linear":
        raise ParameterError("coefficient full conditional is for the linear model")
    priors = spec.priors
    if t is None:
        t = spec.covariate(state.l)
    n = spec.n
    st = float(t.sum())
    stt = _dot(t, t)
    sy = float(spec.outcome.sum())
    sty = _dot(t, spec.outcome)
    prec = state.tau_eps * np.array([[n, st], [st, stt]])
    prec[0, 0] += 1.0 / priors.coeff0.variance
    prec[1, 1] += 1.0 / priors.coeff.variance
    b = state.tau_eps * np.array([sy, sty])
    b[0] += priors.coeff0.mean / priors.coeff0.variance
    b[1] += priors.coeff.mean / priors.coeff.variance
    mean = np.linalg.solve(prec, b)
    return mean, prec


def full_conditional_precision(residuals, prior: GammaParams) -> GammaParams:
    """Gamma posterior for a normal precision given its residuals.

    Shape-scale form: shape k + n/2, scale theta / (1 + theta * sum(r^2)/2).
    """
    r = np.asarray(residuals, dtype=float)
    n = len(r)
    ss = _dot(r, r)
    return GammaParams(prior.shape + 0.5 * n, prior.scale / (1.0 + prior.scale * 0.5 * ss))


def _draw_precision(state: ChainState, residuals, prior: GammaParams) -> float:
    return sample_gamma(state.rng, full_conditional_precision(residuals, prior))


def update_linear_coeffs(state: ChainState, spec: ModelSpec, cache: _ScanCache):
    """Exact draw of the linear (intercept, slope) from their bivariate
    normal full conditional at t = ``cache.t``."""
    mean, prec = full_conditional_coeffs_linear(state, spec, cache.t)
    chol = np.linalg.cholesky(prec)
    z = state.rng.standard_normal(2)
    draw = mean + np.linalg.solve(chol.T, z)
    state.coeff0, state.coeff = float(draw[0]), float(draw[1])


def update_tau_eps(state: ChainState, spec: ModelSpec, cache: _ScanCache):
    """Gamma draw of the outcome precision on the residuals, written into the
    first two work arrays, then the outcome terms at the new tau_eps."""
    resid, fitted = cache.work[:2]
    np.subtract(spec.outcome, state.coeff0, out=resid)
    resid -= np.multiply(state.coeff, cache.t, out=fitted)
    state.tau_eps = _draw_precision(state, resid, spec.priors.tau_eps)
    _outcome_terms(state, spec, cache.t, state.coeff0, state.coeff, out=cache.terms)


def update_tau_e(state: ChainState, spec: ModelSpec, cache: _ScanCache):
    """Gamma draw of the measurement precision on log W - l, written into the
    first work array."""
    resid = np.subtract(spec.log_w, state.l, out=cache.work[0])
    state.tau_e = _draw_precision(state, resid, spec.priors.tau_e)


# ---------------------------------------------------------------------------
# Metropolis updates


def update_logistic_coeffs(state: ChainState, spec: ModelSpec, cache: _ScanCache):
    """Joint random-walk Metropolis on the logistic (intercept, slope), with
    an adapted proposal covariance."""
    priors = spec.priors
    proposal = state.proposals["coeffs"]
    _, _, terms_prop, eta, work = cache.work
    prop0, prop1 = np.array([state.coeff0, state.coeff]) + proposal.step(state.rng)
    _outcome_terms(state, spec, cache.t, prop0, prop1, out=terms_prop, eta=eta, work=work)

    def log_target(c0, c1, outcome_terms):
        return priors.coeff0.logpdf(c0) + priors.coeff.logpdf(c1) + float(outcome_terms.sum())

    logr = log_target(prop0, prop1, terms_prop) - log_target(state.coeff0, state.coeff, cache.terms)
    accepted = _mh_accept(state.rng, logr)
    if accepted:
        state.coeff0, state.coeff = float(prop0), float(prop1)
        cache.terms, cache.work[2] = terms_prop, cache.terms
    proposal.record(accepted, 1)
    proposal.update_cov(np.array([state.coeff0, state.coeff]))


def update_latent_exposure(state: ChainState, spec: ModelSpec, cache: _ScanCache):
    """Independence sampler on the latent log exposures.

    Each subject proposes from its exact no-outcome conditional
    N(m_i, 1/(tau_e + tau_x)); the measurement and population terms cancel
    against the proposal, so acceptance needs only the per-subject outcome
    ratio. All subjects update in one vectorized pass (their conditionals
    are independent given the parameters). Rejections leave entries
    unchanged, in l and in the scan cache.
    """
    m, prop, terms_prop, eta, work = cache.work
    m, prec = _latent_conditional(spec, state.mu_x, state.tau_x, state.tau_e, m)
    state.rng.standard_normal(out=prop)
    prop /= math.sqrt(prec)
    prop += m
    t_prop = spec.covariate(prop, out=m)
    _outcome_terms(state, spec, t_prop, state.coeff0, state.coeff, out=terms_prop, eta=eta, work=work)
    log_u = state.rng.uniform(out=eta)
    np.log(np.subtract(1.0, log_u, out=log_u), out=log_u)
    accept = log_u < np.subtract(terms_prop, cache.terms, out=work)
    np.copyto(state.l, prop, where=accept)
    np.copyto(cache.t, t_prop, where=accept)
    np.copyto(cache.terms, terms_prop, where=accept)
    state.proposals["latent"].record(np.count_nonzero(accept), spec.n)


def _population_log_ratio(n: int, l_sum: float, tau_x: float, mu: float, mu_prop: float) -> float:
    """Change in the population log density sum_i -tau_x (l_i - mu)^2 / 2
    when mu moves to mu_prop, in O(1) from n and sum(l): the difference of
    the two sums of squares is (mu' - mu)(n (mu' + mu) - 2 sum(l)). A mu
    that overflows gives -inf or NaN, which rejects."""
    return -0.5 * tau_x * (mu_prop - mu) * (n * (mu_prop + mu) - 2.0 * l_sum)


def update_mu_x_tau_x(state: ChainState, spec: ModelSpec, cache: _ScanCache):
    """Exposure-population update: location then precision.

    The location is a conjugate normal draw under a normal prior and a
    random-walk Metropolis step on the log axis under the lognormal prior;
    the precision is a conjugate gamma draw on the centered residuals,
    written into the first work array of ``cache``.
    """
    priors = spec.priors
    n = spec.n
    l_sum = float(state.l.sum())
    if isinstance(priors.mu_x, NormalPrior):
        post_prec = 1.0 / priors.mu_x.variance + n * state.tau_x
        post_mean = (priors.mu_x.mean / priors.mu_x.variance + state.tau_x * l_sum) / post_prec
        state.mu_x = post_mean + state.rng.standard_normal() / math.sqrt(post_prec)
    else:  # lognormal prior: a random walk in a = log mu_x, where the prior is normal
        a_cur = math.log(state.mu_x)
        a_prop = a_cur + state.proposals["mu_x"].scale * state.rng.standard_normal()
        mu_cur, mu_prop = math.exp(min(a_cur, _EXP_CAP)), math.exp(min(a_prop, _EXP_CAP))
        log_prior = priors.mu_x.log_axis.logpdf
        logr = log_prior(a_prop) - log_prior(a_cur) + _population_log_ratio(n, l_sum, state.tau_x, mu_cur, mu_prop)
        # a step below a = -745 underflows exp(a) to 0, where log(mu_x) fails
        accepted = mu_prop > 0.0 and _mh_accept(state.rng, logr)
        if accepted:
            state.mu_x = mu_prop
        state.proposals["mu_x"].record(accepted, 1)

    resid = np.subtract(state.l, state.mu_x, out=cache.work[0])
    state.tau_x = _draw_precision(state, resid, priors.tau_x)


def _softplus(x: float) -> float:
    """log(1 + e^x), without overflow."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def update_structural(state: ChainState, spec: ModelSpec, cache: _ScanCache):
    """Ridge move: a random-walk step in u = logit(r), r = (1/tau_e)/V.

    It holds mu_x, V = 1/tau_x + 1/tau_e and the standardised latents
    eps_i = (l_i - m_i) sqrt(tau_e + tau_x) fixed. The density of log W
    given (mu_x, V) and that of eps then cancel, and the log ratio is the
    gamma log priors of (tau_x, tau_e), the log-Jacobian -log r - log(1 - r)
    and the outcome log ratio at l'_i = m'_i + eps_i / sqrt(tau_e' + tau_x').
    l', t' and the proposal terms are written into the work arrays of
    ``cache``. On acceptance they become the current l, t and terms, and the
    old current arrays take their slots; under the log transform t' is l'
    and t stays l.
    """
    priors = spec.priors
    proposal = state.proposals["structural"]
    log_tau_x, log_tau_e = math.log(state.tau_x), math.log(state.tau_e)
    log_v = float(np.logaddexp(-log_tau_x, -log_tau_e))
    u = log_tau_x - log_tau_e
    u_prop = u + proposal.scale * state.rng.standard_normal()
    # log tau_x = -log V - log(1 - r) and log tau_e = -log V - log r, with
    # -log(1 - r) = softplus(u) and -log r = softplus(-u): no precision is
    # lost when tau_e is near 1e12
    tau_x_prop = math.exp(min(_softplus(u_prop) - log_v, _EXP_CAP))
    tau_e_prop = math.exp(min(_softplus(-u_prop) - log_v, _EXP_CAP))

    m, l_prop, terms_prop, eta, work = cache.work
    m, prec = _latent_conditional(spec, state.mu_x, state.tau_x, state.tau_e, m)
    l_prop, prec_prop = _latent_conditional(spec, state.mu_x, tau_x_prop, tau_e_prop, l_prop)
    np.subtract(state.l, m, out=m)
    m *= math.sqrt(prec / prec_prop)
    l_prop += m
    t_prop = spec.covariate(l_prop, out=m)
    _outcome_terms(state, spec, t_prop, state.coeff0, state.coeff, out=terms_prop, eta=eta, work=work)

    def log_prior_jacobian(u, tau_x, tau_e):
        log_jacobian = _softplus(u) + _softplus(-u)
        return priors.tau_x.logpdf(tau_x) + priors.tau_e.logpdf(tau_e) + log_jacobian

    logr = (
        log_prior_jacobian(u_prop, tau_x_prop, tau_e_prop)
        - log_prior_jacobian(u, state.tau_x, state.tau_e)
        + float(terms_prop.sum())
        - float(cache.terms.sum())
    )
    accepted = _mh_accept(state.rng, logr)
    if accepted:
        state.tau_x = tau_x_prop
        state.tau_e = tau_e_prop
        if t_prop is not l_prop:
            cache.work[0] = cache.t
        cache.work[1], cache.work[2] = state.l, cache.terms
        state.l, cache.t, cache.terms = l_prop, t_prop, terms_prop
    proposal.record(accepted, 1)


# ---------------------------------------------------------------------------
# Scan, initialization, runner


def _blocks(kind: str):
    """The block updates of a scan of the model kind, in order. The names
    are looked up at each call, not bound at import, so that a wrapper set
    on a module attribute is the one a scan calls."""
    coeffs = (update_linear_coeffs, update_tau_eps) if kind == "linear" else (update_logistic_coeffs,)
    return (*coeffs, update_tau_e, update_mu_x_tau_x, update_latent_exposure, update_structural)


def _scan(state: ChainState, spec: ModelSpec, cache: _ScanCache):
    """One full sweep: each block of ``_blocks(spec.kind)`` in turn; that
    order is the kernel's. ``cache`` is the scan cache at this state and
    spec, updated in place. Each Metropolis block records into its proposal
    once per scan, and the proposal adapts there.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(spec.kind):
            block(state, spec, cache)


_COEFF_OFFSETS = (-0.5, 0.0, 0.5)


def initial_state(spec: ModelSpec, strategy: str, chain_index: int, rng: Rng) -> ChainState:
    """Build one chain's starting state.

    paper_replication starts nuisance parameters at the generation-model
    values (unit precisions, zero exposure location) with chain-specific
    coefficient offsets; naive_start anchors everything to the data via the
    naive fit and the observed log exposures. Either way the latent log
    exposures start at log W. A lognormal location prior cannot sit at
    zero, so its start is clamped positive.
    """
    priors = spec.priors
    offset = _COEFF_OFFSETS[chain_index % 3] + 0.1 * (chain_index // 3)
    l0 = spec.log_w.copy()

    if strategy == "paper_replication":
        coeff0, coeff = offset, offset
        if spec.kind == "logistic":
            zbar = float(np.clip(spec.outcome.mean(), 1e-6, 1.0 - 1e-6)) if spec.n else 0.5
            coeff0 = math.log(zbar / (1.0 - zbar)) + offset
        tau_eps = 1.0 if spec.kind == "linear" else None
        tau_x = 1.0
        tau_e = 1.0
        mu_x = 1.0 if isinstance(priors.mu_x, LogNormalPrior) else 0.0
    elif strategy == "naive_start":
        t_obs = spec.w if spec.exposure_transform == "identity" else spec.log_w
        if spec.kind == "linear":
            fit = fit_linear(t_obs, spec.outcome)
            resid = spec.outcome - fit.intercept - fit.slope * t_obs
            tau_eps = 1.0 / max(float(resid.var()), 1e-12)
        else:
            fit = fit_logistic(t_obs, spec.outcome)
            tau_eps = None
        se = fit.slope_se if math.isfinite(fit.slope_se) and fit.slope_se > 0 else 0.1
        coeff0 = fit.intercept
        coeff = fit.slope + offset * 4.0 * se
        lw_var = float(spec.log_w.var())
        tau_x = 1.0 / max(lw_var, 1e-6)
        tau_e = priors.tau_e.mean
        loc = float(spec.log_w.mean())
        mu_x = max(loc, 0.05) if isinstance(priors.mu_x, LogNormalPrior) else loc
    else:
        raise ParameterError(f"unknown init_strategy {strategy!r}")

    state = ChainState(
        coeff0=float(coeff0),
        coeff=float(coeff),
        tau_eps=tau_eps,
        mu_x=float(mu_x),
        tau_x=float(tau_x),
        tau_e=float(tau_e),
        l=l0,
        rng=rng,
        proposals=_default_proposals(spec),
    )
    _check_finite_at_init(state, spec)
    return state


def _check_finite_at_init(state: ChainState, spec: ModelSpec):
    """Raise InitializationError naming the first non-finite log-posterior
    term (the logistic model is the historically fragile one)."""
    checks = [(name, prior.logpdf(getattr(state, name))) for name, prior in spec.priors.items()]
    with np.errstate(over="ignore", invalid="ignore"):
        dev_e = spec.log_w - state.l
        checks.append(("latent_exposure", -0.5 * state.tau_e * _dot(dev_e, dev_e)))
        dev_x = state.l - state.mu_x
        checks.append(("latent_exposure", -0.5 * state.tau_x * _dot(dev_x, dev_x)))
        outcome = _outcome_terms(state, spec, spec.covariate(state.l), state.coeff0, state.coeff)
        checks.append(("outcome", float(outcome.sum())))
    for name, value in checks:
        if not math.isfinite(value):
            raise InitializationError(name, f"log-posterior term = {value}")


@dataclass(frozen=True)
class McmcConfig:
    n_chains: int = 3
    burn_in: int = 2000
    keep: int = 8000
    thin: int = 8
    seed: int = 0
    init_strategy: str = "paper_replication"

    def __post_init__(self):
        require_integers(self, ("n_chains", "burn_in", "keep", "thin", "seed"))
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got seed {self.seed}")
        if self.n_chains < 1:
            raise ParameterError("n_chains must be >= 1")
        if self.burn_in < 0:
            raise ParameterError("burn_in must be >= 0")
        if self.keep < 1:
            raise ParameterError("keep must be >= 1")
        if self.thin < 1:
            raise ParameterError("thin must be >= 1")
        if self.keep % self.thin != 0:
            raise ParameterError(f"keep ({self.keep}) must be a multiple of thin ({self.thin})")
        if self.init_strategy not in ("paper_replication", "naive_start"):
            raise ParameterError(f"unknown init_strategy {self.init_strategy!r}")

    @property
    def n_retained(self) -> int:
        return self.keep // self.thin


def _record(state: ChainState, spec: ModelSpec) -> dict[str, float]:
    """One retained draw; its keys, in order, are the parameter names."""
    if spec.kind == "linear":
        row = {"beta0": state.coeff0, "beta": state.coeff, "tau_eps": state.tau_eps}
    else:
        row = {"alpha0": state.coeff0, "alpha": state.coeff}
    row["tau_e"] = state.tau_e
    row["mu_x"] = state.mu_x
    row["tau_x"] = state.tau_x
    return row


@dataclass
class PosteriorSamples:
    """Retained draws, one dict of parameter arrays per chain, and the
    acceptance rate of each Metropolis block per chain."""

    chains: list[dict[str, np.ndarray]]
    acceptance_rates: list[dict[str, float]]

    @property
    def param_names(self) -> list[str]:
        return list(self.chains[0])

    @property
    def n_retained(self) -> int:
        return len(next(iter(self.chains[0].values())))

    def chain_arrays(self, name: str) -> list[np.ndarray]:
        return [c[name] for c in self.chains]

    def pooled(self, name: str) -> np.ndarray:
        return np.concatenate(self.chain_arrays(name))


_THREADED_MIN_N = 20_000  # subjects from which a cell's chains run at once


def _chain_workers(n: int, n_chains: int) -> int:
    """Threads that run a cell's chains, the calling one included: one
    below ``_THREADED_MIN_N`` subjects, else one per chain and usable CPU."""
    if n < _THREADED_MIN_N:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask outside Linux
        cpus = os.cpu_count() or 1
    return min(n_chains, cpus)


def _run_chain(spec: ModelSpec, mcmc: McmcConfig, state: ChainState, stop: threading.Event, cache: _ScanCache):
    """One chain's retained draws, as parameter arrays, and the acceptance
    rate of each Metropolis block; None if ``stop`` was set before its last
    scan. ``cache`` is the chain's scan cache at its starting state."""
    rows = []
    for i in range(mcmc.burn_in + mcmc.keep):
        if stop.is_set():
            return None
        if i == mcmc.burn_in:
            for proposal in state.proposals.values():
                proposal.freeze()
        _scan(state, spec, cache)
        kept = i + 1 - mcmc.burn_in
        if kept > 0 and kept % mcmc.thin == 0:
            rows.append(_record(state, spec))
    draws = {name: np.array([row[name] for row in rows]) for name in rows[0]}
    return draws, {block: proposal.rate for block, proposal in state.proposals.items()}


def run_chains(spec: ModelSpec, mcmc: McmcConfig, stream: tuple[int, ...] = ()) -> PosteriorSamples:
    """Run the configured chains and collect retained draws.

    Chains differ only in their coefficient starting values and RNG
    streams: chain c draws from ``Rng(seed, stream + (c,))``. Under the
    empty stream those are the paths a cohort of the same seed draws its
    variables from, so give a cell a stream or a seed of its own. Every
    starting state is built first, on the calling thread, so a failing
    start raises ``InitializationError`` before any scan. Then the chains
    run in W = ``_chain_workers(n, n_chains)`` lanes, as the module
    docstring describes; a chain's draws are bit-identical however the
    chains are scheduled. An exception in any chain, or an interrupt of the
    caller, stops every other chain within one scan, starts no further
    chain and is re-raised as it was; of chains that fail before the stop
    reaches them, the lowest numbered one's. Proposals adapt during burn-in
    only.
    """
    states = [initial_state(spec, mcmc.init_strategy, c, Rng(mcmc.seed, stream + (c,))) for c in range(mcmc.n_chains)]
    workers = _chain_workers(spec.n, mcmc.n_chains)
    results = [None] * mcmc.n_chains
    stop = threading.Event()

    def lane(k, cache):
        # each chain's result, or the exception that ended it, re-raised
        # below once every lane has ended; taking a chain's state out of the
        # list drops the previous chain's before the cache restarts
        for c in range(k, mcmc.n_chains, workers):
            if stop.is_set():
                return
            state, states[c] = states[c], None
            try:
                if c != k:
                    cache.start(state, spec)
                results[c] = _run_chain(spec, mcmc, state, stop, cache)
            except BaseException as exc:
                stop.set()
                results[c] = exc

    # a pool given no work starts no thread
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1), thread_name_prefix="meadjust-chain") as pool:
        try:
            # every cache is built on this thread (module docstring)
            lanes = [pool.submit(lane, k, _ScanCache(states[k], spec)) for k in range(1, workers)]
            lane(0, _ScanCache(states[0], spec))
            for future in lanes:
                future.result()
        except BaseException:  # also an interrupt while waiting for a pool lane
            stop.set()
            raise
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return PosteriorSamples(chains=[r[0] for r in results], acceptance_rates=[r[1] for r in results])


# ---------------------------------------------------------------------------
# Generative helpers (prior-predictive checks and the joint-distribution test)


def sample_prior_state(spec: ModelSpec, rng: Rng) -> ChainState:
    """Draw a complete state from the priors (latents from the population
    model); data arrays in spec are ignored except for their length."""
    draws = {name: prior.draw(rng) for name, prior in spec.priors.items()}
    l = draws["mu_x"] + rng.standard_normal(spec.n) / math.sqrt(draws["tau_x"])
    return ChainState(**{"tau_eps": None, **draws}, l=l, rng=rng, proposals=_default_proposals(spec))


def sample_data_given_state(state: ChainState, spec: ModelSpec, rng: Rng) -> ModelSpec:
    """Redraw (w, outcome) from the model at the current state."""
    log_w = state.l + rng.standard_normal(len(state.l)) / math.sqrt(state.tau_e)
    w = np.exp(log_w)
    eta = state.coeff0 + state.coeff * spec.covariate(state.l)
    if spec.kind == "linear":
        outcome = eta + rng.standard_normal(len(eta)) / math.sqrt(state.tau_eps)
    else:
        outcome = (rng.uniform(size=len(eta)) < expit(eta)).astype(float)
    return replace(spec, w=w, outcome=outcome)
