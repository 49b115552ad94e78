"""Seeded random streams and exact sampling of stationary Gaussian sequences.

Sampling uses circulant embedding (Davies-Harte): the target autocovariance
gamma(0..n-1) is extended evenly to a circulant of length 2(n-1) whose FFT
gives the embedding eigenvalues.  If those are nonnegative the method is
exact in distribution and costs O(n log n).  Only the per-frequency
amplitude sqrt(lambda / m) is cached on the AutocovSequence, so a sample
costs one Box-Muller pass, written straight into the spectrum, and one FFT
in place.  The sampler takes only an AutocovSequence of exactly the n >= 2
lags it samples (fgn_autocov gives one, cached per (h, n)), so the scale it
reads is always the one cached on that sequence.

The spectrum buffer is reused across paths and threads: a call borrows a
workspace from a module-level free list and returns it when it is done, so
long embeddings stop allocating (and page-faulting) fresh memory per path.
The eigenvalues of a new embedding size are built in a borrowed workspace
too.  A caller that wants less than the sample, such as a path's grid
values, passes a reducer that runs on the sample inside the workspace, so
only the reduced result is allocated.  Idle workspaces stay resident after
a run: at most one per caller that ran concurrently, each one complex
array of 16 bytes per point of the largest embedding it served.  Results
are fresh arrays and never share a workspace.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

__all__ = [
    "RngState",
    "make_rng",
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


def _polar_pairs(gen: np.random.Generator, v: np.ndarray) -> np.ndarray:
    """k pairs of standard normals r cos(2 pi u2) + i r sin(2 pi u2) in v[:k].

    v is a contiguous complex array of 2k points.  The uniforms u1 and u2
    are drawn into the two contiguous float halves of v[k:], which is left
    as scratch, and the radius r = sqrt(-2 log(1 - u1)) is formed in place
    there; then v[:k] = exp(i 2 pi u2), times r.  Pairwise, inverse-free and
    rejection-free, so the output is a fixed function of the underlying
    uniform stream.  log, sqrt and exp run in place on contiguous arrays;
    exp runs on complex, where glibc's cexp of i theta is (cos theta,
    sin theta) from sincos, bit for bit numpy's contiguous cos and sin.
    numpy's SIMD and strided loops for these functions may differ in the
    last bit, so strided views get plain arithmetic only (products, the
    scaling by 1 / sqrt 2, conjugation).
    """
    k = v.size // 2
    f = v.view(float)
    r, u = f[2 * k : 3 * k], f[3 * k :]
    gen.random(out=r)
    np.subtract(1.0, r, out=r)  # u1 in (0, 1]
    gen.random(out=u)
    np.log(r, out=r)
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    e = v[:k]
    np.multiply(2.0 * np.pi, u, out=e.imag)
    e.real = 0.0
    np.exp(e, out=e)  # cos + i sin of the angle, on the contiguous complex array
    np.multiply(e.real, r, out=e.real)
    np.multiply(e.imag, r, out=e.imag)
    return e


_free_workspaces: list = []  # idle complex spectrum buffers
_free_lock = threading.Lock()
_scale_lock = threading.Lock()  # held while an embedding scale is filled


@contextmanager
def _workspace(m: int):
    """Borrow the spectrum buffer of an embedding of length m.

    The buffer is a contiguous complex prefix view of a workspace from the
    free list, in which the spectrum (or, for a new embedding size, the
    circulant extension) is built and transformed in place, and the sample
    is reduced before the block exits; a workspace shorter than m is
    replaced by one of length m, so each is as long as the largest
    embedding it has served.  The workspace goes back to the list when the
    block exits, and idle workspaces stay resident (at most one per
    concurrent caller), so the next path, in this thread or another, reuses
    the memory instead of faulting fresh pages in.  A borrow nested inside
    another takes a second workspace.
    """
    with _free_lock:
        ws = _free_workspaces.pop() if _free_workspaces else None
    if ws is None or ws.size < m:
        ws = np.empty(m, dtype=complex)
    try:
        yield ws[:m]
    finally:
        with _free_lock:
            _free_workspaces.append(ws)


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

    @property
    def embedding_eigenvalues(self) -> np.ndarray:
        """FFT eigenvalues of the even circulant extension of length 2(n-1).

        Raises NegativeEigenvalueError if any eigenvalue is below
        -EIG_TOL * max(eigenvalues); mildly negative values are clipped to 0.
        The extension is written into a borrowed workspace and transformed
        there, so only the returned array is allocated; it is fresh on each
        call and not cached.
        """
        gamma = self.values
        tail = gamma[-2:0:-1]
        with _workspace(gamma.size + tail.size) as buf:
            buf.real[: gamma.size] = gamma
            buf.real[gamma.size :] = tail
            buf.imag = 0.0
            np.fft.fft(buf, out=buf)
            lam = buf.real
            lam_max, lam_min = lam.max(), lam.min()
            if lam_max <= 0:
                raise NegativeEigenvalueError("embedding has no positive eigenvalue")
            if lam_min < -EIG_TOL * lam_max:
                raise NegativeEigenvalueError(
                    f"circulant embedding has negative eigenvalue {lam_min:.6g} "
                    f"(max {lam_max:.6g}); the autocovariance is invalid for this method"
                )
            return np.clip(lam, 0.0, None)

    @property
    def embedding_scale(self) -> np.ndarray:
        """Per-frequency amplitude sqrt(lambda / m) of the embedding of length m.

        Read-only and filled once per sequence, under a lock, so repeated
        and concurrent sampling pay the eigenvalues and the square root once.
        """
        scale = self.__dict__.get("_scale")
        if scale is None:
            with _scale_lock:
                scale = self.__dict__.get("_scale")
                if scale is None:
                    scale = self.embedding_eigenvalues
                    np.divide(scale, scale.size, out=scale)
                    np.sqrt(scale, out=scale)
                    scale.setflags(write=False)
                    object.__setattr__(self, "_scale", scale)
        return scale


def _filled_once(cached):
    """The lru_cache function cached behind a lock of its own, so that
    callers racing on a cold key fill its entry once; cache_info and
    cache_clear stay.  A fill may call another such function, never its own."""
    lock = threading.Lock()

    @wraps(cached)
    def locked(*args, **kwargs):
        with lock:
            return cached(*args, **kwargs)

    locked.cache_info = cached.cache_info
    locked.cache_clear = cached.cache_clear
    return locked


@_filled_once
@lru_cache(maxsize=64)
def fgn_autocov(h: float, n: int) -> AutocovSequence:
    """Autocovariance of unit-variance fractional Gaussian noise with Hurst h.

    gamma(k) = 0.5 * (|k+1|^(2h) - 2|k|^(2h) + |k-1|^(2h)); gamma(0) = 1.
    The powers p(j) = j^(2h), j = 0..n, are taken once and shared by the
    three terms, combined in that order.  Results are cached, each filled
    once per process (the returned array is read-only), and with them their
    embedding scale.
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"h must be in (0, 1), got {h}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = np.arange(n + 1, dtype=float) ** (2.0 * h)
    gamma = 2.0 * p[:n]
    np.subtract(p[1:], gamma, out=gamma)
    np.add(gamma[1:], p[: n - 1], out=gamma[1:])  # |k-1|^(2h) for k >= 1
    np.multiply(0.5, gamma, out=gamma)
    gamma[0] = 1.0
    return AutocovSequence(gamma)


def sample_stationary_gaussian(acov: AutocovSequence, n: int, rng: RngState, *, reduce=np.copy):
    """Exact-in-distribution stationary Gaussian sample of length n.

    acov must be an AutocovSequence of exactly n >= 2 lags, so that its
    embedding, and the scale cached on it, is the one sampled; any other
    input raises ValueError.  Equal (seed, stream, acov, n) give equal
    output vectors.  Returns reduce(x) for the sample x: x is a writable,
    strided view into the borrowed workspace, which reduce may overwrite
    but must not keep, since the next path reuses the memory.  The default
    returns a fresh contiguous copy of the sample.
    """
    if not isinstance(acov, AutocovSequence):
        raise ValueError(f"acov must be an AutocovSequence, got {type(acov).__name__}")
    if n < 2 or len(acov) != n:
        raise ValueError(f"need exactly n >= 2 autocovariance lags, got n = {n} and {len(acov)} lags")
    gen = rng.generator()
    scale = acov.embedding_scale  # before the borrow below: its fill borrows one
    m = scale.size  # 2(n-1), even
    half = m // 2
    with _workspace(m) as v:
        # the Hermitian spectrum v of m i.i.d. normals e: v[0] = e[0], v[half] = e[1],
        # v[k] = (e[2k] + i e[2k+1]) / sqrt(2) for 0 < k < half, v[m-k] = conj(v[k]);
        # the moves below overwrite the Box-Muller scratch in v[half:] only
        # after _polar_pairs has consumed it
        _polar_pairs(gen, v)
        v[half] = v.imag[0]
        v.imag[0] = 0.0
        np.multiply(v[1:half].view(float), 1.0 / np.sqrt(2.0), out=v[1:half].view(float))
        np.conjugate(v[1:half][::-1], out=v[half + 1 :])
        np.multiply(scale, v, out=v)
        np.fft.fft(v, out=v)
        return reduce(v.real[:n])
