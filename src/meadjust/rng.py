"""Seedable random generation and the gamma distribution of the precisions.

Streams are splittable: an ``Rng`` is identified by ``(seed, stream)`` where
``stream`` is a tuple of integers fed to numpy's ``SeedSequence`` spawn key.
Two instances with the same identity produce bit-identical draws; distinct
stream paths are statistically independent, so chains, cohort variables and
replicates can all derive private streams from one master seed.

``GammaParams`` scores (``logpdf``) and draws (``draw``) itself, like the
normal priors in ``priors``. Gamma draws come from numpy's
``Generator.gamma`` on the stream's generator; ``sample_gamma`` only clamps
them away from zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["Rng", "GammaParams", "sample_gamma"]

_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution in shape-scale form: mean k*theta, variance k*theta^2."""

    shape: float
    scale: float

    def __post_init__(self):
        for name, value in (("shape", self.shape), ("scale", self.scale)):
            if not (0 < value < math.inf):
                raise ParameterError(f"gamma {name} must be finite and > 0, got {value}")

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2

    def logpdf(self, x) -> float:
        if x <= 0:
            return -math.inf
        k, th = self.shape, self.scale
        return (k - 1.0) * math.log(x) - x / th - math.lgamma(k) - k * math.log(th)

    def draw(self, rng: Rng) -> float:
        return sample_gamma(rng, self)


class Rng:
    """Deterministic splittable random stream.

    Parameters
    ----------
    seed : int
        Master seed (64-bit unsigned).
    stream : tuple of int, optional
        Stream path under the master seed. Instances with distinct paths
        are independent; the empty path is the root stream.

    A negative seed or stream entry raises ``ParameterError``.
    """

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream = tuple(int(s) for s in stream)
        if self.seed < 0 or any(s < 0 for s in self.stream):
            raise ParameterError(f"seeds must be non-negative, got seed {self.seed} with stream {self.stream}")
        ss = np.random.SeedSequence(self.seed, spawn_key=self.stream)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def split(self, *path: int) -> "Rng":
        """Derive an independent child stream by extending the stream path."""
        return Rng(self.seed, self.stream + path)

    # Raw primitives --------------------------------------------------------

    def uniform(self, size=None, out=None):
        """Uniform draw(s) on [0, 1); ``out`` receives the same draws as a
        fresh array would."""
        return self._gen.random(size=size, out=out)

    def standard_normal(self, size=None, out=None):
        return self._gen.standard_normal(size=size, out=out)

    def __repr__(self):
        return f"Rng(seed={self.seed}, stream={self.stream})"


def sample_gamma(rng: Rng, params: GammaParams, size=None):
    """Gamma draw(s) in shape-scale parameterization, from numpy's sampler.

    At the small prior shapes (down to 0.01) a draw can underflow to zero,
    so draws are clamped to the smallest normal float: a precision is never
    zero. A single draw is clamped in Python floats.
    """
    g = rng._gen.gamma(params.shape, params.scale, size=size)
    return max(g, _TINY) if size is None else np.maximum(g, _TINY)
