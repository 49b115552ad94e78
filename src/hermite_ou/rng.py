"""Seeded random streams and exact sampling of fractional Gaussian noise.

Sampling uses circulant embedding (Davies-Harte): the FGN autocovariance
gamma(0..n-1) is extended evenly to a circulant of length 2(n-1) whose FFT
gives the embedding eigenvalues.  If those are nonnegative the method is
exact in distribution and costs O(n log n).  Only the per-frequency
amplitude sqrt(lambda / m) is cached, once per (h, n), so a sample costs
one Box-Muller pass, written straight into the spectrum, and one FFT in
place.

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

import numbers
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

__all__ = [
    "RngState",
    "fgn_autocov",
    "sample_stationary_gaussian",
    "NegativeEigenvalueError",
]

# Eigenvalues of the circulant embedding in [-EIG_TOL * max, 0) are treated
# as round-off and clipped to zero; anything more negative is an error.
EIG_TOL = 1e-10


class NegativeEigenvalueError(ValueError):
    """Circulant embedding of the autocovariance is not nonnegative definite."""


def _check_integer(name: str, value) -> int:
    """value as an int; raises ValueError naming ``name`` unless it is an
    integer (numpy's included), and a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class RngState:
    """Value-type RNG state: (seed, stream) fully determines every draw.

    Each operation that consumes an RngState derives a fresh generator from
    it, so calling the same operation twice with the same state reproduces
    the same output.  Distinct streams are statistically independent;
    Monte Carlo replications should use one stream per replication.
    seed and stream are integers (numpy's included, stored as int), never
    a float or a bool.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = _check_integer(name, getattr(self, name))
            if not 0 <= v < 2**64:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v}")
            object.__setattr__(self, name, v)

    def generator(self) -> np.random.Generator:
        """Fresh numpy generator seeded by (seed, stream)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


_free_workspaces: list = []  # idle complex spectrum buffers
_free_lock = threading.Lock()


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


def fgn_autocov(h: float, n: int) -> np.ndarray:
    """Autocovariance gamma(0..n-1) of unit-variance fractional Gaussian
    noise with Hurst h.

    gamma(k) = 0.5 * (|k+1|^(2h) - 2|k|^(2h) + |k-1|^(2h)); gamma(0) = 1.
    The powers p(j) = j^(2h), j = 0..n, are taken once and shared by the
    three terms, combined in that order.  Not cached: its package callers,
    the fills of the embedding scale and of the partial-sum normalization,
    are.
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
    return gamma


def _embedding_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """FFT eigenvalues of the even circulant extension of length 2(n-1) of
    the autocovariance gamma(0..n-1).

    Raises NegativeEigenvalueError if any eigenvalue is below
    -EIG_TOL * max(eigenvalues); mildly negative values are clipped to 0.
    The extension is written into a borrowed workspace and transformed
    there, so only the returned array is allocated.
    """
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


@_filled_once
@lru_cache(maxsize=64)
def _embedding_scale(h: float, n: int) -> np.ndarray:
    """Per-frequency amplitude sqrt(lambda / m) of the embedding of length
    m = 2(n-1) of n lags of FGN(h); read-only, and filled once per process,
    so repeated and concurrent sampling pay the eigenvalues and the square
    root once."""
    scale = _embedding_eigenvalues(fgn_autocov(h, n))
    np.divide(scale, scale.size, out=scale)
    np.sqrt(scale, out=scale)
    scale.setflags(write=False)
    return scale


def sample_stationary_gaussian(h: float, n: int, rng: RngState, *, reduce=np.copy):
    """Exact-in-distribution sample of n >= 2 consecutive values of
    unit-variance fractional Gaussian noise with Hurst h in (0, 1).

    Equal (seed, stream, h, n) give equal output vectors.  Returns reduce(x)
    for the sample x: x is a writable, strided view into the borrowed
    workspace, which reduce may overwrite but must not keep, since the next
    path reuses the memory.  The default returns a fresh contiguous copy of
    the sample.
    """
    n = _check_integer("n", n)
    if n < 2:
        raise ValueError(f"need n >= 2 values, got n = {n}")
    gen = rng.generator()
    scale = _embedding_scale(h, n)  # before the borrow below: its fill borrows one
    m = scale.size  # 2(n-1), even
    half = m // 2
    with _workspace(m) as v:
        # Box-Muller, pairwise, inverse-free and rejection-free, so a fixed function
        # of the uniform stream: v[:half] = r exp(i 2 pi u2), r = sqrt(-2 log(1 - u1)),
        # with u1 and u2 drawn in one call into the float halves of v[half:] as
        # scratch.  log, sqrt and exp run in place on contiguous arrays; on complex,
        # glibc's cexp of i theta is (cos theta, sin theta) from sincos, bit for bit
        # numpy's contiguous cos and sin.  numpy's SIMD and strided loops may differ
        # in the last bit, so strided views get plain arithmetic only.
        f = v.view(float)
        r, u = f[m : m + half], f[m + half :]
        gen.random(out=f[m:])
        np.subtract(1.0, r, out=r)  # u1 in (0, 1]
        np.log(r, out=r)
        np.multiply(-2.0, r, out=r)
        np.sqrt(r, out=r)
        e = v[:half]
        np.multiply(2.0 * np.pi, u, out=e.imag)
        e.real = 0.0
        np.exp(e, out=e)
        np.multiply(e.real, r, out=e.real)
        np.multiply(e.imag, r, out=e.imag)
        # the Hermitian spectrum v of m i.i.d. normals e: v[0] = e[0], v[half] = e[1],
        # v[k] = (e[2k] + i e[2k+1]) / sqrt(2) for 0 < k < half, v[m-k] = conj(v[k]);
        # these moves overwrite the scratch in v[half:] only after it is consumed
        v[half] = v.imag[0]
        v.imag[0] = 0.0
        np.multiply(v[1:half].view(float), 1.0 / np.sqrt(2.0), out=v[1:half].view(float))
        np.conjugate(v[1:half][::-1], out=v[half + 1 :])
        np.multiply(scale, v, out=v)
        np.fft.fft(v, out=v)
        return reduce(v.real[:n])
