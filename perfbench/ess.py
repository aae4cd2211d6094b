"""Bulk effective sample size, rank-normalised and split-chain.

Follows Vehtari, Gelman, Simpson, Carpenter & Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC" (arXiv:1903.08008): pool the draws, replace
them by normal scores of their ranks, split every chain in half, estimate
the autocorrelation of the combined chains, and truncate its sum with
Geyer's initial monotone sequence.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

__all__ = ["bulk_ess"]


def _split(chains: np.ndarray) -> np.ndarray:
    """Halve each chain (dropping the middle draw of odd lengths)."""
    n = chains.shape[1] // 2
    return np.concatenate([chains[:, :n], chains[:, -n:]], axis=0)


def _rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks, with Blom's offset (3/8)."""
    s = chains.size
    ranks = rankdata(chains, method="average").reshape(chains.shape)
    return ndtri((ranks - 0.375) / (s + 0.25))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row at lags 0..n-1, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(f * np.conj(f), size, axis=1)[:, :n] / n


def _ess(chains) -> float:
    """ESS of draws shaped (chains, draws), without rank normalisation or
    splitting."""
    x = np.asarray(chains, dtype=float)
    m, n = x.shape
    acov = _autocovariance(x)
    chain_var = acov[:, 0] * n / (n - 1.0)
    w = chain_var.mean()
    var_plus = w * (n - 1.0) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if not var_plus > 0:
        return float("nan")
    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0

    # Geyer: sum pairs (rho_2k + rho_2k+1) while positive, forced monotone
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    positive = pairs > 0
    k = len(pairs) if positive.all() else int(np.argmin(positive))
    monotone = np.minimum.accumulate(pairs[:k])
    tau = -1.0 + 2.0 * monotone.sum()
    tau = max(tau, 1.0 / np.log10(m * n))
    return float(m * n / tau)


def bulk_ess(chains) -> float:
    """Bulk ESS of draws shaped (chains, draws); needs at least 4 draws per
    chain. Returns NaN when the draws are constant."""
    x = np.asarray(chains, dtype=float)
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError(f"need draws shaped (chains, >=4 draws), got {x.shape}")
    if not np.all(np.isfinite(x)):
        return float("nan")
    return _ess(_rank_normalize(_split(x)))
