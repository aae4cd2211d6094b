"""Seedable random generation and the distribution samplers the models need.

Streams are splittable: an ``Rng`` is identified by ``(seed, stream)`` where
``stream`` is a tuple of integers fed to numpy's ``SeedSequence`` spawn key.
Two instances with the same identity produce bit-identical draws; distinct
stream paths are statistically independent, so chains, cohort variables and
replicates can all derive private streams from one master seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["Rng", "GammaParams", "sample_gamma"]

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution in shape-scale form: mean k*theta, variance k*theta^2."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0):
            raise ParameterError(f"gamma shape must be > 0, got {self.shape}")
        if not (self.scale > 0):
            raise ParameterError(f"gamma scale must be > 0, got {self.scale}")

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2


class Rng:
    """Deterministic splittable random stream.

    Parameters
    ----------
    seed : int
        Master seed (64-bit unsigned).
    stream : tuple of int, optional
        Stream path under the master seed. Instances with distinct paths
        are independent; the empty path is the root stream.
    """

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream = tuple(int(s) for s in stream)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def split(self, *path: int) -> "Rng":
        """Derive an independent child stream by extending the stream path."""
        return Rng(self.seed, self.stream + path)

    # Raw primitives --------------------------------------------------------

    def uniform(self, size=None):
        """Uniform draw(s) on [0, 1)."""
        return self._gen.random(size=size)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size=size)

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


def _gamma_shape_ge1(rng: Rng, shape: float, n: int) -> np.ndarray:
    """Marsaglia-Tsang rejection sampler for shape >= 1, unit scale."""
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        x = rng.standard_normal(size=todo.size)
        v = (1.0 + c * x) ** 3
        u = 1.0 - rng.uniform(size=todo.size)  # (0, 1], safe to log
        ok = (v > 0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(np.where(v > 0, v, 1.0)))
        out[todo[ok]] = d * v[ok]
        todo = todo[~ok]
    return out


def sample_gamma(rng: Rng, params: GammaParams, size=None):
    """Gamma draw(s) in shape-scale parameterization.

    Shapes below 1 (the priors use shapes down to 0.01) are handled by
    sampling at shape+1 and applying the U^(1/shape) correction in log
    space. At small shapes that correction can still underflow, so draws
    are clamped to the smallest normal float: a precision is never zero.
    """
    n = 1 if size is None else int(np.prod(size))
    k = params.shape
    if k >= 1.0:
        g = _gamma_shape_ge1(rng, k, n)
    else:
        g = _gamma_shape_ge1(rng, k + 1.0, n)
        u = 1.0 - rng.uniform(size=n)  # (0, 1]
        g = np.exp(np.log(g) + np.log(u) / k)
    g = np.maximum(params.scale * g, _TINY)
    if size is None:
        return float(g[0])
    return g.reshape(size)
