"""Seeded random streams and exact sampling of stationary Gaussian sequences.

Sampling uses circulant embedding (Davies-Harte): the target autocovariance
gamma(0..n-1) is extended evenly to a circulant of length 2(n-1) whose FFT
gives the embedding eigenvalues.  If those are nonnegative the method is
exact in distribution and costs O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "RngState",
    "make_rng",
    "normal_deviates",
    "AutocovSequence",
    "fgn_autocov",
    "sample_stationary_gaussian",
    "NegativeEigenvalueError",
]

# Eigenvalues of the circulant embedding in [-EIG_TOL * max, 0) are treated
# as round-off and clipped to zero; anything more negative is an error.
EIG_TOL = 1e-10


class NegativeEigenvalueError(ValueError):
    """Circulant embedding of the autocovariance is not nonnegative definite."""


@dataclass(frozen=True)
class RngState:
    """Value-type RNG state: (seed, stream) fully determines every draw.

    Each operation that consumes an RngState derives a fresh generator from
    it, so calling the same operation twice with the same state reproduces
    the same output.  Distinct streams are statistically independent;
    Monte Carlo replications should use one stream per replication.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not (0 <= int(v) < 2**64):
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator seeded by (seed, stream)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


def make_rng(seed: int, stream: int = 0) -> RngState:
    """Deterministic generator state for the given seed and stream index."""
    return RngState(seed=int(seed), stream=int(stream))


def _box_muller(gen: np.random.Generator, size: int) -> np.ndarray:
    """size standard normals via the Box-Muller transform of uniform pairs.

    Pairwise, inverse-free and rejection-free, so the output is a fixed
    function of the underlying uniform stream.
    """
    if size <= 0:
        return np.empty(0)
    pairs = (size + 1) // 2
    u1 = 1.0 - gen.random(pairs)  # in (0, 1]
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(2.0 * np.pi * u2)
    out[1::2] = r * np.sin(2.0 * np.pi * u2)
    return out[:size]


def normal_deviates(rng: RngState, size: int) -> np.ndarray:
    """size i.i.d. N(0,1) deviates, reproducible from (seed, stream)."""
    return _box_muller(rng.generator(), size)


@dataclass(frozen=True)
class AutocovSequence:
    """Autocovariances gamma(0), gamma(1), ..., gamma(n-1) of a stationary sequence."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("autocovariance must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(v)):
            raise ValueError("autocovariance contains non-finite values")
        if v[0] <= 0:
            raise ValueError(f"gamma(0) must be positive, got {v[0]}")
        if np.any(np.abs(v) > v[0] * (1 + 1e-12)):
            raise ValueError("|gamma(k)| must not exceed gamma(0)")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @cached_property
    def embedding_eigenvalues(self) -> np.ndarray:
        """FFT eigenvalues of the even circulant extension of length 2(n-1).

        Raises NegativeEigenvalueError if any eigenvalue is below
        -EIG_TOL * max(eigenvalues); mildly negative values are clipped to 0.
        Cached on the sequence, so repeated sampling pays the FFT once.
        """
        gamma = self.values
        circ = np.concatenate([gamma, gamma[-2:0:-1]])  # length 2(n-1)
        lam = np.fft.fft(circ).real
        lam_max = lam.max()
        if lam_max <= 0:
            raise NegativeEigenvalueError("embedding has no positive eigenvalue")
        bad = lam < -EIG_TOL * lam_max
        if np.any(bad):
            raise NegativeEigenvalueError(
                f"circulant embedding has negative eigenvalue {lam[bad].min():.6g} "
                f"(max {lam_max:.6g}); the autocovariance is invalid for this method"
            )
        lam = np.clip(lam, 0.0, None)
        lam.setflags(write=False)
        return lam


@lru_cache(maxsize=64)
def fgn_autocov(h: float, n: int) -> AutocovSequence:
    """Autocovariance of unit-variance fractional Gaussian noise with Hurst h.

    gamma(k) = 0.5 * (|k+1|^(2h) - 2|k|^(2h) + |k-1|^(2h)); gamma(0) = 1.
    Results are cached (the returned array is read-only), and with them
    their embedding eigenvalues.
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must be in (0, 1), got {h}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = np.arange(n, dtype=float)
    two_h = 2.0 * h
    gamma = 0.5 * ((k + 1) ** two_h - 2 * k**two_h + np.abs(k - 1) ** two_h)
    gamma[0] = 1.0
    return AutocovSequence(gamma)


def sample_stationary_gaussian(acov, n: int, rng: RngState) -> np.ndarray:
    """Exact-in-distribution stationary Gaussian sample of length n.

    acov may be an AutocovSequence or a plain array of autocovariances and
    must provide at least n lags.  Equal (seed, stream, acov, n) give equal
    output vectors.
    """
    if not isinstance(acov, AutocovSequence):
        acov = AutocovSequence(acov)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(acov) < n:
        raise ValueError(f"need {n} autocovariance lags, got {len(acov)}")
    gen = rng.generator()
    if n == 1:
        return np.sqrt(acov.values[0]) * _box_muller(gen, 1)
    if len(acov) > n:
        acov = AutocovSequence(acov.values[:n])
    lam = acov.embedding_eigenvalues
    m = lam.size  # 2(n-1), even
    half = m // 2
    e = _box_muller(gen, m)
    v = np.empty(m, dtype=complex)
    v[0] = e[0]
    v[half] = e[1]
    v[1:half] = (e[2::2] + 1j * e[3::2]) / np.sqrt(2.0)
    v[half + 1 :] = np.conj(v[1:half][::-1])
    return np.fft.fft(np.sqrt(lam / m) * v).real[:n]
