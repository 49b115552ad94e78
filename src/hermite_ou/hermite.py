"""Hermite process generators on a uniform time grid.

The Hermite process of order q >= 1 and self-similarity parameter
H in (1/2, 1) is the centered, H-self-similar process with stationary
increments living in the q-th Wiener chaos.  Order q = 1 is fractional
Brownian motion, q = 2 the Rosenblatt process; for q >= 2 the process is
non-Gaussian.  Its law is normalized so that E[Z_1^2] = 1, which fixes the
covariance E[Z_t Z_s] = 0.5 * (t^(2H) + s^(2H) - |t-s|^(2H)).

``simulate_partial_sum(q, H, ...)`` generates it from normalized partial
sums sum_{j<=Nt} He_q(xi_j) of the q-th Hermite polynomial applied to a
stationary Gaussian sequence with fractional-noise correlation of Hurst
H0 = hermite_exponent(q, H) = 1 + (H-1)/q.  By the noncentral limit theorem
these converge to the Hermite process; the normalization uses the exact
finite-N variance so that Var(Z_1) = 1 holds exactly at any resolution.

``simulate_fbm`` gives exact fractional Brownian motion (the q = 1 case)
from cumulative fractional Gaussian noise.

Both draw each path as one circulant-embedding sample of fractional
Gaussian noise (rng.sample_stationary_gaussian), reduced to its grid inside
the sampler's workspace.  Before they allocate, both check the horizon and
the embedding size (``_check_embedding``), and partial sums also the
normalization (``_unit_steps``); harness._driver makes the same checks once
per grid.  What stays resident per size is the embedding scale, cached per
(h, n) in rng, and the partial-sum normalization, cached here per
(q, H0, summands per unit of time); no autocovariance is kept.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .rng import RngState, _filled_once, fgn_autocov, sample_stationary_gaussian

__all__ = [
    "Provenance",
    "GridPath",
    "hermite_exponent",
    "simulate_fbm",
    "simulate_partial_sum",
    "running_max_abs",
    "write_path_csv",
    "read_path_csv",
]


# largest Hermite order: the partial-sum variance q! * sum_{j,l<=k} rho^q is
# at most q! * k^2, which stays finite for every k up to the 2^24 lags that
# _unit_steps allows if and only if q <= 164 (165! * 2^48 overflows a double)
_MAX_ORDER = 164


def _check_integer(name: str, value) -> int:
    """value as an int; raises ValueError naming ``name`` unless it is an
    integer (numpy's included), and a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def hermite_exponent(q: int, h: float) -> float:
    """Per-factor kernel exponent H0 = 1 + (H - 1) / q, in (1 - 1/(2q), 1).

    Raises ValueError unless q is an integer in [1, _MAX_ORDER] ("order q")
    and H is in (1/2, 1)."""
    if not 1 <= _check_integer("order q", q) <= _MAX_ORDER:
        raise ValueError(f"order q must be an integer in [1, {_MAX_ORDER}], got {q}")
    if not 0.5 < h < 1.0:
        raise ValueError(f"self-similarity parameter H must be in (1/2, 1), got {h}")
    return 1.0 + (h - 1.0) / q


@dataclass(frozen=True)
class Provenance:
    """Where a path came from: RNG coordinates plus a generator tag."""

    seed: int
    stream: int
    tag: str

    def derive(self, tag: str) -> "Provenance":
        return Provenance(self.seed, self.stream, f"{tag}<-{self.tag}")


@dataclass(frozen=True)
class GridPath:
    """A process sampled on the uniform grid t_i = i * t_max / n, i = 0..n.

    Immutable after construction; ``values`` has length n + 1 and is marked
    read-only.
    """

    t_max: float
    n: int
    values: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        if not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be positive and finite, got {self.t_max}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != (self.n + 1,):
            raise ValueError(f"values must have length n + 1 = {self.n + 1}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("path contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return self.t_max / self.n

    @cached_property
    def times(self) -> np.ndarray:
        """Grid times t_i = i * t_max / n, computed once and read-only."""
        t = np.arange(self.n + 1) * (self.t_max / self.n)
        t.setflags(write=False)
        return t

    def with_values(self, values: np.ndarray, tag: str) -> "GridPath":
        """Same grid, new values, provenance derived with the given tag."""
        return GridPath(self.t_max, self.n, values, self.provenance.derive(tag))


# largest circulant embedding the FFT samplers may build: 2^24 points.  That
# is one 256 MiB complex workspace per worker, in which every path is drawn
# and reduced to its grid, plus, once per process, the cached 128 MiB scale
# and, while they are filled, the 64 MiB autocovariance of 2^23 + 1 lags and,
# for partial sums, the normalization's of up to 2^24 lags (the benchmark
# workloads use at most 2^17 points)
_EMBEDDING_MAX_POINTS = 1 << 24


def _embedding_lags(n_incr: int) -> int:
    """Length n_pad of the stationary stretch sampled for n_incr FGN values:
    the next power of two at or above n_incr - 1, plus one.  The longer
    stretch, which the grid reduction truncates, keeps the FFT of
    2 (n_pad - 1) points fast and leaves the law of the first n_incr values
    unchanged."""
    return (1 << max(0, (n_incr - 1).bit_length())) + 1


def _check_embedding(n: int, m: int, t_max: float) -> None:
    """Raise ValueError, before anything is allocated, when the horizon
    t_max is not positive and finite, or when the n * m FGN values of a grid
    of n steps with m summands per step need a circulant embedding
    (2(n_pad - 1) points) above the limit.

    The messages name "t_max" or start "grid size n", which the CLI maps to
    --t-max and --n.
    """
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    points = 2 * (_embedding_lags(n * m) - 1)
    if points > _EMBEDDING_MAX_POINTS:
        grid = f"n = {n}" if m == 1 else f"n = {n} with m = {m}"
        raise ValueError(
            f"grid size {grid}: {n * m} Gaussian increments need a circulant embedding "
            f"of {points} points, above the limit of {_EMBEDDING_MAX_POINTS} points"
        )


def _unit_steps(n: int, m: int, t_max: float) -> int:
    """Summands per unit of time, n m / t_max, for the partial-sum
    normalization, which divides by the standard deviation of that many.

    Raises ValueError, before anything is allocated, when _check_embedding
    does, when the normalization needs too many lags, or when n m / t_max
    is more than 1e-3 of itself from an integer: rounding it would then
    normalize by the wrong standard deviation.
    """
    _check_embedding(n, m, t_max)
    units = n * m / t_max
    if not units <= _EMBEDDING_MAX_POINTS:
        raise ValueError(
            f"t_max = {t_max:g} with n = {n} and m = {m}: the variance normalization "
            f"needs {units:.6g} autocovariance lags per unit of time, above the limit "
            f"of {_EMBEDDING_MAX_POINTS}; raise t_max or lower n or m"
        )
    if abs(round(units) - units) > 1e-3 * units:
        raise ValueError(
            f"t_max = {t_max:g} with n = {n} and m = {m}: the variance normalization "
            f"needs a whole number of summands per unit of time, got n m / t_max = "
            f"{units:.6g}; pick t_max so that n m / t_max is an integer"
        )
    return round(units)


def simulate_fbm(h: float, n: int, t_max: float, rng: RngState) -> GridPath:
    """Exact fractional Brownian motion on the grid (accepts any h in (0,1)).

    Cumulative sum of fractional Gaussian noise scaled by (t_max/n)^h.
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst parameter must be in (0, 1), got {h}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    _check_embedding(n, 1, t_max)

    def grid(x):
        incr = np.multiply(x[:n], (t_max / n) ** h, out=x[:n])
        return np.concatenate([[0.0], np.cumsum(incr, out=incr)])

    values = sample_stationary_gaussian(h, _embedding_lags(n), rng, reduce=grid)
    return GridPath(t_max, n, values, Provenance(rng.seed, rng.stream, f"fbm(H={h:g})"))


@_filled_once
@lru_cache(maxsize=64)
def _partial_sum_std(q: int, h0: float, k: int) -> float:
    """Exact standard deviation of sum_{j=1}^{k} He_q(xi_j) for FGN(h0) input.

    Uses E[He_q(X) He_q(Y)] = q! * corr(X,Y)^q for jointly standard normal
    pairs, so the variance is q! * sum_{j,l<=k} rho(|j-l|)^q.  Filled once
    per process, as its k-lag temporaries are as long as the autocovariance.
    """
    rho = fgn_autocov(h0, k)
    lags = np.arange(1, k, dtype=float)
    terms = rho[1:] ** q
    np.multiply(np.subtract(k, lags, out=lags), terms, out=terms)  # (k - lags) rho^q
    var = math.factorial(q) * (k + 2.0 * np.sum(terms))
    return math.sqrt(var)


def _hermite_in_place(x: np.ndarray, q: int) -> np.ndarray:
    """He_q(x) written over x, q >= 1, with the Clenshaw steps of numpy's
    hermeval for the coefficients e_q, in its order: c1 = 0 + 1 x, then
    (c0, c1) <- (0 - (nd - 1) c1, c0 + c1 x) for nd = q - 1 .. 1.  So every
    bit is hermeval's, signed zeros included.  x is replaced by 0 + x at
    the first step: the two differ only in the sign of a zero, which every
    later use adds to a c0 that is never -0, so no result bit changes.
    Only steps before the last allocate (none for q <= 2)."""
    np.add(0.0, x, out=x)
    c0, c1 = 0.0 - (q - 1), x
    for nd in range(q - 1, 0, -1):
        if nd == 1:
            return np.add(c0, np.multiply(c1, x, out=x), out=x)
        c0, c1 = 0.0 - c1 * (nd - 1), c0 + c1 * x
    return x


def simulate_partial_sum(q: int, H: float, n: int, m: int, t_max: float, rng: RngState) -> GridPath:
    """Hermite path of order q and self-similarity parameter H from
    normalized Hermite-polynomial partial sums.

    Draws N = n * m values of a stationary standard Gaussian sequence with
    FGN correlation of Hurst H0, applies the q-th Hermite polynomial and
    accumulates; grid point i collects the first i * m summands.  The
    divisor is the exact finite-resolution standard deviation of the sum
    over one unit of time, n m / t_max summands, which must be a whole
    number; so Var(Z_1) = 1 whenever t = 1 is on the grid.

    m is the internal refinement (summands per grid step, >= 16 recommended).
    """
    h0 = hermite_exponent(q, H)
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be >= 1, got n={n}, m={m}")
    k_unit = _unit_steps(n, m, t_max)  # internal points per unit of time

    def grid(x):
        xi = _hermite_in_place(x[: n * m], q)
        sums = np.cumsum(xi, out=xi)
        return np.concatenate([[0.0], sums[m - 1 :: m]]) / _partial_sum_std(q, h0, k_unit)

    values = sample_stationary_gaussian(h0, _embedding_lags(n * m), rng, reduce=grid)
    tag = f"partial-sum(q={q},H={H:g},m={m})"
    return GridPath(t_max, n, values, Provenance(rng.seed, rng.stream, tag))


def running_max_abs(values: np.ndarray) -> np.ndarray:
    """Running maximum of |values| along the last axis, one row per path:
    out[..., i] = max_{j<=i} |values[..., j]| (nondecreasing)."""
    out = np.abs(values)
    return np.maximum.accumulate(out, axis=-1, out=out)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_path_csv(path: GridPath, fh) -> None:
    """Write a path as CSV: header ``t,value``, 17 significant digits.

    The provenance and the grid are echoed first as '#'-prefixed lines.
    """
    prov = path.provenance
    fh.write(f"# generator={prov.tag} seed={prov.seed} stream={prov.stream}\n")
    fh.write(f"# t_max={_fmt(path.t_max)} n={path.n}\n")
    fh.write("t,value\n")
    times = path.times
    for i in range(path.n + 1):
        fh.write(f"{_fmt(times[i])},{_fmt(path.values[i])}\n")


def read_path_csv(fh) -> GridPath:
    """Read a path written by write_path_csv.

    t_max comes from the ``# t_max=`` comment line, so it round-trips
    exactly; without that line it is the last time value.  Other comment
    lines are skipped.
    """
    header = None
    t_max = None
    rows = []
    for line in fh:
        line = line.strip()
        if line.startswith("# t_max="):
            t_max = float(line[len("# t_max=") :].partition(" ")[0])
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line
            if header != "t,value":
                raise ValueError(f"expected header 't,value', got {header!r}")
            continue
        t_str, v_str = line.split(",")
        rows.append((float(t_str), float(v_str)))
    if len(rows) < 2:
        raise ValueError("path CSV needs at least two data rows")
    times = np.array([r[0] for r in rows])
    values = np.array([r[1] for r in rows])
    n = len(rows) - 1
    t_max = float(times[-1]) if t_max is None else t_max
    step = t_max / n
    # each time within 1e-6 steps of i t_max / n (times written with 9 significant
    # digits on [0, 1] at n <= 1000 are within 5e-7): a tolerance that scales
    # with t would accept a point shifted by a fraction of t far along the grid
    if not (t_max > 0 and np.all(np.abs(times - np.arange(n + 1) * step) <= 1e-6 * step)):
        raise ValueError("path CSV must be sampled on a uniform grid starting at 0")
    return GridPath(t_max, n, values, Provenance(0, 0, "csv"))
