"""Simulation and Bayesian adjustment toolkit for multiplicative exposure
measurement error: cohort generation, naive frequentist fits, an MCMC
adjustment engine, convergence diagnostics and an evidence-ratio toy model.

The root exports the names that the README's library use imports and that
the tests and the benchmark read from it; every other public name lives in
its own module (``meadjust.mcmc.PosteriorSamples``,
``meadjust.priors.NormalPrior``, ...).
"""
__version__ = "0.1.0"  # before the imports: experiment reads it

from .cohort import Cohort, CohortConfig, read_cohort, simulate_cohort, write_cohort
from .diagnostics import rhat, summarize, transform_summary
from .errors import (
    CohortParseError,
    DegenerateChainError,
    InitializationError,
    InsufficientSamplesError,
    ParameterError,
    SingularDesignError,
)
from .evidence import HypothesisPriors, ToyData, delta, marginal_likelihood_null, marginal_likelihood_positive
from .experiment import write_traces
from .mcmc import McmcConfig, ModelSpec, full_conditional_coeffs_linear, full_conditional_precision, run_chains
from .naive import correct_rr_reliability, correct_slope_reliability, fit_linear, fit_logistic
from .priors import linear_priors, logistic_priors
from .rng import GammaParams, Rng

__all__ = [
    "Cohort",
    "CohortConfig",
    "read_cohort",
    "simulate_cohort",
    "write_cohort",
    "rhat",
    "summarize",
    "transform_summary",
    "CohortParseError",
    "DegenerateChainError",
    "InitializationError",
    "InsufficientSamplesError",
    "ParameterError",
    "SingularDesignError",
    "HypothesisPriors",
    "ToyData",
    "delta",
    "marginal_likelihood_null",
    "marginal_likelihood_positive",
    "McmcConfig",
    "ModelSpec",
    "full_conditional_coeffs_linear",
    "full_conditional_precision",
    "run_chains",
    "write_traces",
    "correct_rr_reliability",
    "correct_slope_reliability",
    "fit_linear",
    "fit_logistic",
    "linear_priors",
    "logistic_priors",
    "GammaParams",
    "Rng",
]
