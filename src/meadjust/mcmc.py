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
proposal covariance (Haario, Saksman & Tamminen 2001). Proposals adapt
during burn-in only and are then frozen, so retained draws come from a
fixed kernel; from then on they count the acceptances that
``PosteriorSamples.acceptance_rates`` reports.

``ModelSpec`` is the sampler's one view of the data: it owns log W,
computed once, and ``covariate(l)``, the exposure the outcome model sees.
Every block takes ``(state, spec)``, and the chain state repeats nothing
the spec holds.

All acceptance decisions work on log densities; nothing is exponentiated
to linear scale, so cohorts of 10^5 subjects cannot overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import expit

from .cohort import Cohort, require_integers
from .errors import InitializationError, ParameterError
from .naive import fit_linear, fit_logistic
from .priors import LogNormalPrior, NormalPrior, PriorSet
from .rng import GammaParams, Rng, sample_gamma

__all__ = [
    "ModelSpec",
    "McmcConfig",
    "ChainState",
    "PosteriorSamples",
    "full_conditional_coeffs_linear",
    "full_conditional_precision",
    "update_latent_exposure",
    "update_logistic_coeffs",
    "update_mu_x_tau_x",
    "run_chains",
    "initial_state",
    "sample_prior_state",
    "sample_data_given_state",
]

_EXP_CAP = 700.0  # exp argument cap; overflowing proposals reject cleanly


def _safe_exp(x):
    return np.exp(np.minimum(x, _EXP_CAP))


def _normal_logpdf(x, mean, variance):
    return -0.5 * (math.log(2.0 * math.pi * variance) + (x - mean) ** 2 / variance)


def _gamma_logpdf(x, prior: GammaParams):
    if x <= 0:
        return -math.inf
    k, th = prior.shape, prior.scale
    return (k - 1.0) * math.log(x) - x / th - math.lgamma(k) - k * math.log(th)


def _mh_accept(rng: Rng, logr: float) -> bool:
    """Metropolis decision on a log ratio; NaN (invalid both ways) rejects."""
    if logr >= 0.0:
        return True
    if math.isnan(logr):
        return False
    return math.log(1.0 - rng.uniform()) < logr


# ---------------------------------------------------------------------------
# Model specification


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
        if self.kind not in ("linear", "logistic"):
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

    def covariate(self, l):
        """The exposure the outcome model sees at latent log exposures l."""
        if self.exposure_transform == "identity":
            return _safe_exp(l)
        return l


# ---------------------------------------------------------------------------
# Chain state and per-block proposals


_ADAPT_WINDOW = 50  # scans between step-size updates during burn-in
_COV_INIT_SD = 0.3  # proposal sd per axis until a covariance is learnt


class Proposal:
    """Proposal of one Metropolis block and its adaptation.

    The step size follows a windowed Robbins-Monro rule towards ``target``.
    With ``dim`` set, the block also learns a running proposal covariance
    (Haario-style adaptive Metropolis). Without a target there is nothing
    to adapt and the proposal only counts acceptances. ``freeze`` ends the
    adaptation and restarts the acceptance counts, which from then on
    cover the retained scans.
    """

    def __init__(self, scale: float | None = None, target: float | None = None, dim: int | None = None):
        self.scale = scale
        self.target = target
        self.accepted = 0.0
        self.attempts = 0
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
        self.accepted += float(accepted)
        self.attempts += int(attempts)

    def end_scan(self, iteration: int):
        if self.frozen or self.attempts == 0 or self.target is None:
            return
        if (iteration + 1) % _ADAPT_WINDOW == 0:
            self.rounds += 1
            step = (self.rate - self.target) / math.sqrt(self.rounds)
            self.scale *= math.exp(max(-0.7, min(0.7, step)))
            self.accepted = 0.0
            self.attempts = 0

    def step(self, rng: Rng) -> np.ndarray:
        return self.scale * (self.chol @ rng.standard_normal(len(self.mean)))

    def update_cov(self, x: np.ndarray, iteration: int):
        if self.frozen:
            return
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, x - self.mean)
        if self.count >= 100 and (iteration + 1) % 25 == 0:
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
    iteration: int = 0
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


def _outcome_loglik_terms(state: ChainState, spec: ModelSpec, l, coeff0: float, coeff: float) -> np.ndarray:
    """Per-subject outcome log likelihood at latent log exposures l and
    coefficients (coeff0, coeff), without the linear model's normalizing
    constant (it depends on neither).

    Overflowing linear predictors propagate to -inf terms, which reject in
    any Metropolis ratio they enter.
    """
    t = spec.covariate(l)
    with np.errstate(over="ignore"):
        eta = coeff0 + coeff * t
        if spec.kind == "linear":
            return -0.5 * state.tau_eps * (spec.outcome - eta) ** 2
        return spec.outcome * eta - np.logaddexp(0.0, eta)


def _outcome_at(state: ChainState, spec: ModelSpec, l) -> np.ndarray:
    """Per-subject outcome log likelihood at l and the current coefficients."""
    return _outcome_loglik_terms(state, spec, l, state.coeff0, state.coeff)


def _latent_conditional(spec: ModelSpec, mu_x: float, tau_x: float, tau_e: float):
    """Mean m_i and precision tau_e + tau_x of each latent log exposure
    given the measurement and population models, without the outcome."""
    prec = tau_e + tau_x
    return (tau_e * spec.log_w + tau_x * mu_x) / prec, prec


# ---------------------------------------------------------------------------
# Conjugate full conditionals


def full_conditional_coeffs_linear(state: ChainState, spec: ModelSpec):
    """Exact bivariate normal full conditional of the linear (intercept,
    slope), as (mean vector, precision matrix)."""
    if spec.kind != "linear":
        raise ParameterError("coefficient full conditional is for the linear model")
    priors = spec.priors
    t = spec.covariate(state.l)
    n = spec.n
    st = float(t.sum())
    stt = float(t @ t)
    sy = float(spec.outcome.sum())
    sty = float(t @ spec.outcome)
    prec = state.tau_eps * np.array([[n, st], [st, stt]])
    prec[0, 0] += 1.0 / priors.coeff0.variance
    prec[1, 1] += 1.0 / priors.coeff.variance
    b = state.tau_eps * np.array([sy, sty])
    b[0] += priors.coeff0.mean / priors.coeff0.variance
    b[1] += priors.coeff.mean / priors.coeff.variance
    mean = np.linalg.solve(prec, b)
    return mean, prec


def _draw_linear_coeffs(state: ChainState, spec: ModelSpec):
    mean, prec = full_conditional_coeffs_linear(state, spec)
    chol = np.linalg.cholesky(prec)
    z = state.rng.standard_normal(2)
    draw = mean + np.linalg.solve(chol.T, z)
    state.coeff0, state.coeff = float(draw[0]), float(draw[1])


def full_conditional_precision(residuals, prior: GammaParams) -> GammaParams:
    """Gamma posterior for a normal precision given its residuals.

    Shape-scale form: shape k + n/2, scale theta / (1 + theta * sum(r^2)/2).
    """
    r = np.asarray(residuals, dtype=float)
    n = len(r)
    ss = float(r @ r)
    return GammaParams(prior.shape + 0.5 * n, prior.scale / (1.0 + prior.scale * 0.5 * ss))


def _draw_precision(state: ChainState, residuals, prior: GammaParams) -> float:
    return sample_gamma(state.rng, full_conditional_precision(residuals, prior))


# ---------------------------------------------------------------------------
# Metropolis updates


def update_logistic_coeffs(state: ChainState, spec: ModelSpec):
    """Joint random-walk Metropolis on the logistic (intercept, slope), with
    an adapted proposal covariance."""
    priors = spec.priors
    proposal = state.proposals["coeffs"]
    prop0, prop1 = np.array([state.coeff0, state.coeff]) + proposal.step(state.rng)

    def log_target(c0, c1):
        lp = _normal_logpdf(c0, priors.coeff0.mean, priors.coeff0.variance)
        lp += _normal_logpdf(c1, priors.coeff.mean, priors.coeff.variance)
        return lp + float(_outcome_loglik_terms(state, spec, state.l, c0, c1).sum())

    logr = log_target(prop0, prop1) - log_target(state.coeff0, state.coeff)
    accepted = _mh_accept(state.rng, logr)
    if accepted:
        state.coeff0, state.coeff = float(prop0), float(prop1)
    proposal.record(accepted, 1)
    proposal.update_cov(np.array([state.coeff0, state.coeff]), state.iteration)


def update_latent_exposure(state: ChainState, spec: ModelSpec):
    """Independence sampler on the latent log exposures.

    Each subject proposes from its exact no-outcome conditional
    N(m_i, 1/(tau_e + tau_x)); the measurement and population terms cancel
    against the proposal, so acceptance needs only the per-subject outcome
    ratio. All subjects update in one vectorized pass (their conditionals
    are independent given the parameters). Rejections leave entries
    unchanged.
    """
    m, prec = _latent_conditional(spec, state.mu_x, state.tau_x, state.tau_e)
    prop = m + state.rng.standard_normal(spec.n) / math.sqrt(prec)
    logr = _outcome_at(state, spec, prop) - _outcome_at(state, spec, state.l)
    accept = np.log(1.0 - state.rng.uniform(size=spec.n)) < logr
    state.l[:] = np.where(accept, prop, state.l)
    state.proposals["latent"].record(accept.sum(), spec.n)


def update_mu_x_tau_x(state: ChainState, spec: ModelSpec):
    """Exposure-population update: location then precision.

    The location is a conjugate normal draw under a normal prior and a
    random-walk Metropolis step on the log axis under the lognormal prior;
    the precision is a conjugate gamma draw on the centered residuals.
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

        def log_target(a):
            dev = state.l - math.exp(min(a, _EXP_CAP))
            log_prior = _normal_logpdf(a, priors.mu_x.log_mean, priors.mu_x.log_variance)
            return log_prior - 0.5 * state.tau_x * float(dev @ dev)

        logr = log_target(a_prop) - log_target(a_cur)
        accepted = _mh_accept(state.rng, logr)
        if accepted:
            state.mu_x = math.exp(min(a_prop, _EXP_CAP))
        state.proposals["mu_x"].record(accepted, 1)

    state.tau_x = _draw_precision(state, state.l - state.mu_x, priors.tau_x)


def _softplus(x: float) -> float:
    """log(1 + e^x), without overflow."""
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def update_structural(state: ChainState, spec: ModelSpec):
    """Ridge move: a random-walk step in u = logit(r), r = (1/tau_e)/V.

    It holds mu_x, V = 1/tau_x + 1/tau_e and the standardised latents
    eps_i = (l_i - m_i) sqrt(tau_e + tau_x) fixed. The density of log W
    given (mu_x, V) and that of eps then cancel, and the log ratio is the
    gamma log priors of (tau_x, tau_e), the log-Jacobian -log r - log(1 - r)
    and the outcome log ratio at l'_i = m'_i + eps_i / sqrt(tau_e' + tau_x').
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

    m, prec = _latent_conditional(spec, state.mu_x, state.tau_x, state.tau_e)
    m_prop, prec_prop = _latent_conditional(spec, state.mu_x, tau_x_prop, tau_e_prop)
    l_prop = m_prop + (state.l - m) * math.sqrt(prec / prec_prop)

    def log_prior_jacobian(u, tau_x, tau_e):
        log_jacobian = _softplus(u) + _softplus(-u)
        return _gamma_logpdf(tau_x, priors.tau_x) + _gamma_logpdf(tau_e, priors.tau_e) + log_jacobian

    logr = (
        log_prior_jacobian(u_prop, tau_x_prop, tau_e_prop)
        - log_prior_jacobian(u, state.tau_x, state.tau_e)
        + float(_outcome_at(state, spec, l_prop).sum())
        - float(_outcome_at(state, spec, state.l).sum())
    )
    accepted = _mh_accept(state.rng, logr)
    if accepted:
        state.tau_x = tau_x_prop
        state.tau_e = tau_e_prop
        state.l = l_prop
    proposal.record(accepted, 1)


# ---------------------------------------------------------------------------
# Scan, initialization, runner


def _scan(state: ChainState, spec: ModelSpec):
    """One full sweep in fixed order; the order is part of the kernel."""
    if spec.kind == "linear":
        _draw_linear_coeffs(state, spec)
        resid = spec.outcome - state.coeff0 - state.coeff * spec.covariate(state.l)
        state.tau_eps = _draw_precision(state, resid, spec.priors.tau_eps)
    else:
        update_logistic_coeffs(state, spec)
    state.tau_e = _draw_precision(state, spec.log_w - state.l, spec.priors.tau_e)
    update_mu_x_tau_x(state, spec)
    update_latent_exposure(state, spec)
    update_structural(state, spec)
    state.iteration += 1
    for proposal in state.proposals.values():
        proposal.end_scan(state.iteration)


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


def _mu_x_logprior(mu_x: float, prior) -> float:
    if isinstance(prior, LogNormalPrior):
        return _normal_logpdf(math.log(mu_x), prior.log_mean, prior.log_variance)
    return _normal_logpdf(mu_x, prior.mean, prior.variance)


def _check_finite_at_init(state: ChainState, spec: ModelSpec):
    """Raise InitializationError naming the first non-finite log-posterior
    term (the logistic model is the historically fragile one)."""
    priors = spec.priors
    checks = [
        ("coeff0", _normal_logpdf(state.coeff0, priors.coeff0.mean, priors.coeff0.variance)),
        ("coeff", _normal_logpdf(state.coeff, priors.coeff.mean, priors.coeff.variance)),
        ("mu_x", _mu_x_logprior(state.mu_x, priors.mu_x)),
        ("tau_x", _gamma_logpdf(state.tau_x, priors.tau_x)),
        ("tau_e", _gamma_logpdf(state.tau_e, priors.tau_e)),
    ]
    if spec.kind == "linear":
        checks.append(("tau_eps", _gamma_logpdf(state.tau_eps, priors.tau_eps)))
    dev_e = spec.log_w - state.l
    checks.append(("latent_exposure", -0.5 * state.tau_e * float(dev_e @ dev_e)))
    dev_x = state.l - state.mu_x
    checks.append(("latent_exposure", -0.5 * state.tau_x * float(dev_x @ dev_x)))
    outcome = _outcome_at(state, spec, state.l)
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


def run_chains(spec: ModelSpec, mcmc: McmcConfig, stream: tuple[int, ...] = ()) -> PosteriorSamples:
    """Run the configured chains sequentially and collect retained draws.

    Chains differ only in their coefficient starting values and RNG
    streams (derived from the master seed and the chain index, so results
    are bit-reproducible however chains are scheduled). Proposals adapt
    during burn-in only.
    """
    chains = []
    rates = []
    for c in range(mcmc.n_chains):
        rng = Rng(mcmc.seed, stream + (c,))
        state = initial_state(spec, mcmc.init_strategy, c, rng)
        for _ in range(mcmc.burn_in):
            _scan(state, spec)
        for proposal in state.proposals.values():
            proposal.freeze()
        rows = []
        for t in range(mcmc.keep):
            _scan(state, spec)
            if (t + 1) % mcmc.thin == 0:
                rows.append(_record(state, spec))
        chains.append({name: np.array([row[name] for row in rows]) for name in rows[0]})
        rates.append({block: proposal.rate for block, proposal in state.proposals.items()})
    return PosteriorSamples(chains=chains, acceptance_rates=rates)


# ---------------------------------------------------------------------------
# Generative helpers (prior-predictive checks and the joint-distribution test)


def sample_prior_state(spec: ModelSpec, rng: Rng) -> ChainState:
    """Draw a complete state from the priors (latents from the population
    model); data arrays in spec are ignored except for their length."""
    priors = spec.priors
    coeff0 = priors.coeff0.mean + math.sqrt(priors.coeff0.variance) * rng.standard_normal()
    coeff = priors.coeff.mean + math.sqrt(priors.coeff.variance) * rng.standard_normal()
    if isinstance(priors.mu_x, LogNormalPrior):
        mu_x = math.exp(priors.mu_x.log_mean + math.sqrt(priors.mu_x.log_variance) * rng.standard_normal())
    else:
        mu_x = priors.mu_x.mean + math.sqrt(priors.mu_x.variance) * rng.standard_normal()
    tau_x = sample_gamma(rng, priors.tau_x)
    tau_e = sample_gamma(rng, priors.tau_e)
    tau_eps = sample_gamma(rng, priors.tau_eps) if spec.kind == "linear" else None
    l = mu_x + rng.standard_normal(spec.n) / math.sqrt(tau_x)
    return ChainState(
        coeff0=float(coeff0),
        coeff=float(coeff),
        tau_eps=tau_eps,
        mu_x=float(mu_x),
        tau_x=float(tau_x),
        tau_e=float(tau_e),
        l=l,
        rng=rng,
        proposals=_default_proposals(spec),
    )


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
