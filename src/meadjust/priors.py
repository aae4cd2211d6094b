"""Prior specifications for the adjustment models.

Normal priors are mean-variance; gamma priors are shape-scale. Each prior
scores a value (``logpdf``) and draws one (``draw``). The four
measurement-error precision priors (uninformative, then increasingly
confident assertions of large error) are the experiment's key knob.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ParameterError, require_choice, require_positive
from .rng import GammaParams, Rng

__all__ = [
    "NormalPrior",
    "LogNormalPrior",
    "PriorSet",
    "TAU_E_PRIORS",
    "PRIOR_VARIANT_ORDER",
    "linear_priors",
    "logistic_priors",
]


@dataclass(frozen=True)
class NormalPrior:
    mean: float
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ParameterError(f"prior mean must be finite, got {self.mean}")
        require_positive(self.variance, "prior variance")

    def logpdf(self, x) -> float:
        return -0.5 * (math.log(2.0 * math.pi * self.variance) + (x - self.mean) ** 2 / self.variance)

    def draw(self, rng: Rng) -> float:
        return self.mean + math.sqrt(self.variance) * rng.standard_normal()


@dataclass(frozen=True)
class LogNormalPrior:
    """Lognormal prior: log of the parameter is ``log_axis`` =
    N(log_mean, log_variance). ``logpdf(x)`` is the density of log x at
    log x."""

    log_mean: float
    log_variance: float
    log_axis: NormalPrior = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "log_axis", NormalPrior(self.log_mean, self.log_variance))

    def logpdf(self, x) -> float:
        return self.log_axis.logpdf(math.log(x))

    def draw(self, rng: Rng) -> float:
        return math.exp(self.log_axis.draw(rng))


# Measurement-error precision priors, in table order: mean/variance
# (1, 10), (1, 1), (0.5, 0.5), (0.05, 0.05).
TAU_E_PRIORS: dict[str, GammaParams] = {
    "uninformative": GammaParams(0.1, 10.0),
    "typeA": GammaParams(1.0, 1.0),
    "typeB": GammaParams(0.5, 1.0),
    "typeC": GammaParams(0.05, 1.0),
}

PRIOR_VARIANT_ORDER = tuple(TAU_E_PRIORS)


@dataclass(frozen=True)
class PriorSet:
    """Full prior specification for one disease-model variant.

    coeff0/coeff are the intercept/slope priors (beta for the linear model,
    alpha for the logistic). tau_eps is the linear residual precision and
    must be None for the logistic model. Field names match ``ChainState``'s,
    and the field order is the order in which priors are checked and drawn.
    """

    coeff0: NormalPrior
    coeff: NormalPrior
    mu_x: NormalPrior | LogNormalPrior
    tau_x: GammaParams
    tau_e: GammaParams
    tau_eps: GammaParams | None = None

    def items(self) -> list[tuple[str, NormalPrior | LogNormalPrior | GammaParams]]:
        """(name, prior) of each field that holds a prior, in field order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self) if getattr(self, f.name) is not None]


def _tau_e_prior(variant: str) -> GammaParams:
    require_choice(variant, PRIOR_VARIANT_ORDER, "tau_e prior variant")
    return TAU_E_PRIORS[variant]


def linear_priors(variant: str = "uninformative", mu_x_normal: bool = False) -> PriorSet:
    """Priors for the linear disease model.

    Replication default keeps the lognormal prior on the exposure location
    (which confines it to positive values); ``mu_x_normal`` swaps in a
    N(0, 100) prior instead.
    """
    return PriorSet(
        coeff0=NormalPrior(0.0, 100.0),
        coeff=NormalPrior(0.0, 100.0),
        mu_x=NormalPrior(0.0, 100.0) if mu_x_normal else LogNormalPrior(0.0, 100.0),
        tau_x=GammaParams(0.01, 10.0),
        tau_e=_tau_e_prior(variant),
        tau_eps=GammaParams(0.01, 10.0),
    )


def logistic_priors(variant: str = "uninformative") -> PriorSet:
    """Priors for the logistic disease model."""
    return PriorSet(
        coeff0=NormalPrior(0.0, 10.0),
        coeff=NormalPrior(0.0, 10.0),
        mu_x=NormalPrior(0.0, 10.0),
        tau_x=GammaParams(0.1, 10.0),
        tau_e=_tau_e_prior(variant),
        tau_eps=None,
    )
