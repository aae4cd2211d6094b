"""Simulation and Bayesian adjustment toolkit for multiplicative exposure
measurement error: cohort generation, naive frequentist fits, an MCMC
adjustment engine, convergence diagnostics and an evidence-ratio toy model.
"""
__version__ = "0.1.0"  # before the imports: experiment reads it

from .cohort import Cohort, CohortConfig, read_cohort, simulate_cohort, write_cohort
from .diagnostics import PosteriorSummary, RhatReport, rhat, summarize, transform_summary
from .errors import (
    CohortParseError,
    DegenerateChainError,
    InitializationError,
    InsufficientSamplesError,
    NumericalError,
    ParameterError,
    SingularDesignError,
)
from .evidence import HypothesisPriors, ToyData, delta, marginal_likelihood_null, marginal_likelihood_positive
from .experiment import write_traces
from .mcmc import (
    ChainState,
    McmcConfig,
    ModelSpec,
    PosteriorSamples,
    full_conditional_coeffs_linear,
    full_conditional_precision,
    initial_state,
    run_chains,
)
from .naive import FitResult, correct_rr_reliability, correct_slope_reliability, fit_linear, fit_logistic
from .priors import (
    PRIOR_VARIANT_ORDER,
    TAU_E_PRIORS,
    LogNormalPrior,
    NormalPrior,
    PriorSet,
    linear_priors,
    logistic_priors,
)
from .rng import GammaParams, Rng, sample_gamma

__all__ = [
    "Cohort",
    "CohortConfig",
    "read_cohort",
    "simulate_cohort",
    "write_cohort",
    "PosteriorSummary",
    "RhatReport",
    "rhat",
    "summarize",
    "transform_summary",
    "CohortParseError",
    "DegenerateChainError",
    "InitializationError",
    "InsufficientSamplesError",
    "NumericalError",
    "ParameterError",
    "SingularDesignError",
    "HypothesisPriors",
    "ToyData",
    "delta",
    "marginal_likelihood_null",
    "marginal_likelihood_positive",
    "ChainState",
    "McmcConfig",
    "ModelSpec",
    "PosteriorSamples",
    "full_conditional_coeffs_linear",
    "full_conditional_precision",
    "initial_state",
    "run_chains",
    "write_traces",
    "FitResult",
    "correct_rr_reliability",
    "correct_slope_reliability",
    "fit_linear",
    "fit_logistic",
    "PRIOR_VARIANT_ORDER",
    "TAU_E_PRIORS",
    "LogNormalPrior",
    "NormalPrior",
    "PriorSet",
    "linear_priors",
    "logistic_priors",
    "GammaParams",
    "Rng",
    "sample_gamma",
]
