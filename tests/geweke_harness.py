"""Successive-conditional (joint-distribution) test harness for the MCMC
kernel.

Two samplers of the same joint law over (parameters, data) are compared:
the marginal-conditional sampler draws parameters from the prior and data
from the model, independently each round; the successive-conditional
sampler alternates one full MCMC scan with a data redraw. If the scan
leaves the posterior invariant, both samplers share every parameter
moment; z-scores compare their means (batch-means errors on the
autocorrelated chain).

Priors here are deliberately moderate: the test checks kernel correctness,
which holds for any proper prior, and heavy-tailed prior draws would only
add variance to the comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import meadjust.mcmc as mcmc
from meadjust.mcmc import ModelSpec
from meadjust.priors import LogNormalPrior, NormalPrior, PriorSet
from meadjust.rng import GammaParams, Rng

N_SUBJECTS = 50
ROUNDS = 10_000
N_BATCHES = 50


@dataclass
class GewekeResult:
    label: str
    z_scores: dict[str, float]

    @property
    def max_abs_z(self) -> float:
        return max(abs(z) for z in self.z_scores.values())


def _monitors(state, spec: ModelSpec) -> dict[str, float]:
    g = {
        "coeff0": state.coeff0,
        "coeff": state.coeff,
        "coeff_sq": state.coeff**2,
        "log_tau_e": math.log(state.tau_e),
        "log_tau_x": math.log(state.tau_x),
        # error share r = (1/tau_e) / (1/tau_x + 1/tau_e), the ridge move's axis
        "logit_r": math.log(state.tau_x) - math.log(state.tau_e),
        # its square: a mean comparison of logit_r alone misses a change
        # that keeps logit_r symmetric (equal tau_x and tau_e priors)
        "logit_r_sq": (math.log(state.tau_x) - math.log(state.tau_e)) ** 2,
        "mu_axis": math.log(state.mu_x) if isinstance(spec.priors.mu_x, LogNormalPrior) else state.mu_x,
        "l0": state.l[0],
    }
    if spec.kind == "linear":
        g["log_tau_eps"] = math.log(state.tau_eps)
    return g


def run_geweke(kind: str, transform: str, priors: PriorSet, seed: int, thin: int, label: str) -> GewekeResult:
    spec0 = ModelSpec(
        kind=kind,
        w=np.ones(N_SUBJECTS),
        outcome=np.zeros(N_SUBJECTS),
        priors=priors,
        exposure_transform=transform,
    )

    rng_mc = Rng(seed, (0,))
    keys = list(_monitors(mcmc.sample_prior_state(spec0, rng_mc), spec0))
    mc = {k: np.empty(ROUNDS) for k in keys}
    for r in range(ROUNDS):
        st = mcmc.sample_prior_state(spec0, rng_mc)
        for k, v in _monitors(st, spec0).items():
            mc[k][r] = v

    rng_sc = Rng(seed, (1,))
    state = mcmc.sample_prior_state(spec0, rng_sc)
    spec = mcmc.sample_data_given_state(state, spec0, rng_sc)
    for proposal in state.proposals.values():  # fixed kernel: the test needs a time-homogeneous chain
        proposal.freeze()
    sc = {k: np.empty(ROUNDS) for k in keys}
    for r in range(ROUNDS):
        for _ in range(thin):
            mcmc._scan(state, spec, mcmc._ScanCache(state, spec))
            spec = mcmc.sample_data_given_state(state, spec0, rng_sc)
        for k, v in _monitors(state, spec0).items():
            sc[k][r] = v

    z_scores = {}
    for k in keys:
        m1 = mc[k].mean()
        s1 = mc[k].std(ddof=1) / math.sqrt(ROUNDS)
        batches = sc[k].reshape(N_BATCHES, -1).mean(axis=1)
        m2 = sc[k].mean()
        s2 = batches.std(ddof=1) / math.sqrt(N_BATCHES)
        z_scores[k] = float((m1 - m2) / math.sqrt(s1**2 + s2**2))
    return GewekeResult(label=label, z_scores=z_scores)


def run_all_configs() -> list[GewekeResult]:
    """The three kernel configurations: both outcome kinds, both covariate
    transforms, and both exposure-location prior families."""
    linear_identity = PriorSet(
        coeff0=NormalPrior(0.0, 1.0),
        coeff=NormalPrior(0.0, 1.0),
        mu_x=NormalPrior(0.0, 0.25),
        tau_x=GammaParams(4.0, 1.0),
        tau_e=GammaParams(2.0, 0.5),
        tau_eps=GammaParams(2.0, 0.5),
    )
    linear_log = PriorSet(
        coeff0=NormalPrior(0.0, 1.0),
        coeff=NormalPrior(0.0, 1.0),
        mu_x=LogNormalPrior(0.0, 0.5),
        tau_x=GammaParams(2.0, 0.5),
        tau_e=GammaParams(2.0, 0.5),
        tau_eps=GammaParams(2.0, 0.5),
    )
    logistic = PriorSet(
        coeff0=NormalPrior(0.0, 1.0),
        coeff=NormalPrior(0.0, 1.0),
        mu_x=NormalPrior(0.0, 1.0),
        tau_x=GammaParams(2.0, 0.5),
        tau_e=GammaParams(2.0, 0.5),
        tau_eps=None,
    )
    return [
        run_geweke("linear", "identity", linear_identity, seed=11, thin=2, label="linear/identity/normal-location"),
        run_geweke("linear", "log", linear_log, seed=101, thin=10, label="linear/log/lognormal-location"),
        run_geweke("logistic", "identity", logistic, seed=33, thin=2, label="logistic/identity/normal-location"),
    ]
