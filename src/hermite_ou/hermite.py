"""Hermite process generators on a uniform time grid.

The Hermite process of order q >= 1 and self-similarity parameter
H in (1/2, 1) is the centered, H-self-similar process with stationary
increments living in the q-th Wiener chaos.  Order q = 1 is fractional
Brownian motion, q = 2 the Rosenblatt process; for q >= 2 the process is
non-Gaussian.  Its law is normalized so that E[Z_1^2] = 1, which fixes the
covariance E[Z_t Z_s] = 0.5 * (t^(2H) + s^(2H) - |t-s|^(2H)).

Two generators are provided:

* ``simulate_partial_sum`` (default for q >= 2): normalized partial sums
  sum_{j<=Nt} He_q(xi_j) of the q-th Hermite polynomial applied to a
  stationary Gaussian sequence with fractional-noise correlation of Hurst
  H0 = 1 + (H-1)/q.  By the noncentral limit theorem these converge to the
  Hermite process; the normalization uses the exact finite-N variance so
  that Var(Z_1) = 1 holds exactly at any resolution.
* ``simulate_kernel`` (reference, q <= 2): direct discretization of the
  moving-average representation
  Z_t = c(q,H) * int_{R^q} (int_0^t prod_j (s - psi_j)_+^(H0-3/2) ds) dW,
  with the infinite past truncated to [-trunc, 0) and the singular kernel
  factor integrated exactly over each psi-cell.

``simulate_fbm`` gives exact fractional Brownian motion (the q = 1 case)
from cumulative fractional Gaussian noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermeval
from scipy.special import beta as beta_fn

from .rng import RngState, fgn_autocov, normal_deviates, sample_stationary_gaussian

__all__ = [
    "HermiteSpec",
    "Provenance",
    "GridPath",
    "hermite_exponent",
    "hermite_constant",
    "simulate_fbm",
    "simulate_partial_sum",
    "simulate_kernel",
    "running_max_abs",
    "write_path_csv",
    "read_path_csv",
]


def _check_order_and_hurst(q: int, h: float) -> None:
    if int(q) != q or q < 1:
        raise ValueError(f"order q must be an integer >= 1, got {q}")
    if not 0.5 < h < 1.0:
        raise ValueError(f"self-similarity parameter H must be in (1/2, 1), got {h}")


def hermite_exponent(q: int, h: float) -> float:
    """Per-factor kernel exponent H0 = 1 + (H - 1) / q, in (1 - 1/(2q), 1)."""
    _check_order_and_hurst(q, h)
    return 1.0 + (h - 1.0) / q


def hermite_constant(q: int, h: float) -> float:
    """Normalizing constant c(q,H) = sqrt(H(2H-1) / (q! B(H0-1/2, 2-2H0)^q)).

    Chosen so that the kernel representation has Var(Z_1) = 1.
    """
    _check_order_and_hurst(q, h)
    h0 = hermite_exponent(q, h)
    denom = math.factorial(q) * beta_fn(h0 - 0.5, 2.0 - 2.0 * h0) ** q
    return math.sqrt(h * (2.0 * h - 1.0) / denom)


@dataclass(frozen=True)
class HermiteSpec:
    """Order q, self-similarity parameter H, and the derived H0 and c(q,H)."""

    q: int
    H: float
    H0: float = field(init=False)
    c: float = field(init=False)

    def __post_init__(self):
        _check_order_and_hurst(self.q, self.H)
        object.__setattr__(self, "H0", hermite_exponent(self.q, self.H))
        object.__setattr__(self, "c", hermite_constant(self.q, self.H))


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
    read-only.  ``meta`` carries generator diagnostics (e.g. truncation bias).
    """

    t_max: float
    n: int
    values: np.ndarray
    provenance: Provenance
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.t_max <= 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
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

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) * (self.t_max / self.n)

    def with_values(self, values: np.ndarray, tag: str) -> "GridPath":
        """Same grid, new values, provenance derived with the given tag."""
        return GridPath(self.t_max, self.n, values, self.provenance.derive(tag))


def _fgn_increments(h: float, n_incr: int, rng: RngState) -> np.ndarray:
    """n_incr unit-variance FGN(h) values, via a power-of-two embedding.

    The embedding length is padded to the next power of two (by sampling a
    slightly longer stationary stretch and truncating), which keeps the FFT
    fast; the marginal law of the first n_incr values is unchanged.
    """
    if n_incr == 1:
        return sample_stationary_gaussian(fgn_autocov(h, 1), 1, rng)
    n_pad = (1 << max(0, (n_incr - 1).bit_length())) + 1
    x = sample_stationary_gaussian(fgn_autocov(h, n_pad), n_pad, rng)
    return x[:n_incr]


def simulate_fbm(h: float, n: int, t_max: float, rng: RngState) -> GridPath:
    """Exact fractional Brownian motion on the grid (accepts any h in (0,1)).

    Cumulative sum of fractional Gaussian noise scaled by (t_max/n)^h.
    """
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst parameter must be in (0, 1), got {h}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    incr = _fgn_increments(h, n, rng) * (t_max / n) ** h
    values = np.concatenate([[0.0], np.cumsum(incr)])
    return GridPath(t_max, n, values, Provenance(rng.seed, rng.stream, f"fbm(H={h:g})"))


@lru_cache(maxsize=64)
def _partial_sum_std(q: int, h0: float, k: int) -> float:
    """Exact standard deviation of sum_{j=1}^{k} He_q(xi_j) for FGN(h0) input.

    Uses E[He_q(X) He_q(Y)] = q! * corr(X,Y)^q for jointly standard normal
    pairs, so the variance is q! * sum_{j,l<=k} rho(|j-l|)^q.
    """
    rho = fgn_autocov(h0, k).values
    lags = np.arange(1, k, dtype=float)
    var = math.factorial(q) * (k + 2.0 * np.sum((k - lags) * rho[1:] ** q))
    return math.sqrt(var)


def simulate_partial_sum(
    spec: HermiteSpec, n: int, m: int, t_max: float, rng: RngState
) -> GridPath:
    """Hermite path from normalized Hermite-polynomial partial sums.

    Draws N = n * m values of a stationary standard Gaussian sequence with
    FGN correlation of Hurst H0, applies the q-th Hermite polynomial and
    accumulates; grid point i collects the first i * m summands.  The
    divisor is the exact finite-resolution standard deviation of the sum
    over one unit of time, so Var(Z_1) = 1 whenever t = 1 is on the grid.

    m is the internal refinement (summands per grid step, >= 16 recommended).
    """
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be >= 1, got n={n}, m={m}")
    big_n = n * m
    k_unit = max(1, round(big_n / t_max))  # internal points per unit of time
    xi = _fgn_increments(spec.H0, big_n, rng)
    coeffs = np.zeros(spec.q + 1)
    coeffs[spec.q] = 1.0
    sums = np.cumsum(hermeval(xi, coeffs))
    values = np.concatenate([[0.0], sums[m - 1 :: m]]) / _partial_sum_std(
        spec.q, spec.H0, k_unit
    )
    tag = f"partial-sum(q={spec.q},H={spec.H:g},m={m})"
    return GridPath(t_max, n, values, Provenance(rng.seed, rng.stream, tag))


# kernel generator resolution: psi-cells per grid step, and s-subcells per
# psi-cell for the q = 2 quadrature
_PSI_REFINE = 4
_S_REFINE = 8


def _cell_averaged_kernel(s: np.ndarray, edges: np.ndarray, expo: float) -> np.ndarray:
    """Cell averages over psi of (s - psi)_+^expo, shape (len(s), len(edges)-1).

    The antiderivative in psi is -(s - psi)_+^(expo+1) / (expo+1); averaging
    over each cell integrates the singular factor exactly, so entries stay
    finite even where s falls inside a cell.
    """
    p = expo + 1.0
    width = edges[1] - edges[0]
    pow_edges = np.maximum(s[:, None] - edges[None, :], 0.0) ** p
    return (pow_edges[:, :-1] - pow_edges[:, 1:]) / (p * width)


@lru_cache(maxsize=8)
def _kernel_grids(n: int, trunc: float, t_max: float):
    """psi-cell edges covering [-trunc, t_max) (truncation snapped to the grid)."""
    width = t_max / (n * _PSI_REFINE)
    n_left = math.ceil(trunc / width)
    edges = np.arange(-n_left, n * _PSI_REFINE + 1) * width
    edges.setflags(write=False)
    return width, edges


@lru_cache(maxsize=8)
def _kernel_q1_weights(h0: float, n: int, trunc: float, t_max: float):
    """Matrix A with Z_{t_i} = c * sum_c A[i, c] * dW_c for the q = 1 kernel.

    A[i, c] is the exact cell average over psi-cell c of
    F(t_i, psi) = int_0^{t_i} (s - psi)_+^(h0 - 3/2) ds.
    """
    width, edges = _kernel_grids(n, trunc, t_max)
    times = np.arange(n + 1) * (t_max / n)
    b = h0 - 0.5  # exponent after the inner ds-integration, in (0, 1/2)

    def antider(x):
        return np.maximum(x, 0.0) ** (b + 1.0)

    upper = antider(times[:, None] - edges[None, :])
    lower = antider(-edges[None, :])
    a = (upper[:, :-1] - upper[:, 1:]) - (lower[:, :-1] - lower[:, 1:])
    a /= b * (b + 1.0) * width
    a.setflags(write=False)
    return a


@lru_cache(maxsize=8)
def _kernel_q2_weights(h0: float, n: int, trunc: float, t_max: float):
    """s-quadrature weight matrix v_c(s_mid) for the q = 2 kernel generator."""
    _, edges = _kernel_grids(n, trunc, t_max)
    n_sub = n * _PSI_REFINE * _S_REFINE
    s_mid = (np.arange(n_sub) + 0.5) * (t_max / n_sub)
    v = _cell_averaged_kernel(s_mid, edges, h0 - 1.5)
    v.setflags(write=False)
    return v


@lru_cache(maxsize=8)
def _kernel_variance_deficit(q: int, h0: float, c: float, n: int, trunc: float, t_max: float):
    """Exact relative variance deficit 1 - E[Z_{t_max}^2] / t_max^(2H) of the
    discrete kernel scheme (truncation plus cell discretization combined).

    For q = 2 the deficit includes the kernel mass of the diagonal band
    |psi_1 - psi_2| < cell width that the same-cell exclusion removes.
    Returns None when the exact computation would need too much memory.
    """
    h = 1.0 + q * (h0 - 1.0)
    target = t_max ** (2.0 * h)
    if q == 1:
        width, _ = _kernel_grids(n, trunc, t_max)
        a_end = _kernel_q1_weights(h0, n, trunc, t_max)[-1]
        return 1.0 - c**2 * np.sum(a_end**2) * width / target
    v = _kernel_q2_weights(h0, n, trunc, t_max)
    n_sub, n_cells = v.shape
    if min(n_sub, n_cells) > 4096:
        return None
    width, _ = _kernel_grids(n, trunc, t_max)
    ds = t_max / n_sub
    # E[Z^2] = 2 c^2 ds^2 (sum_kl G_kl^2 - sum_kl D_kl), G = width * V V^T;
    # sum G^2 = width^2 ||V^T V||_F^2 via the smaller Gram matrix.
    if n_cells <= n_sub:
        gram_sq = float(np.sum((v.T @ v) ** 2))
    else:
        gram_sq = float(np.sum((v @ v.T) ** 2))
    col_mass = np.sum(v**2, axis=0)
    d_sum = float(np.sum(col_mass**2)) * width**2
    second_moment = 2.0 * c**2 * ds**2 * (width**2 * gram_sq - d_sum)
    return 1.0 - second_moment / target


@lru_cache(maxsize=16)
def _truncation_bias_estimate(q: int, h0: float, c: float, t_max: float, trunc: float) -> float:
    """Relative variance mass of Var(Z_{t_max}) lost to the cutoff psi < -trunc.

    Computed from the exact q = 1 tail integral (numeric window plus the
    asymptotic remainder b^2 t^2 W^(2b-1) / (1-2b) of the far tail); for
    q >= 2 the union bound over the q coordinates gives an upper-bound
    estimate q * (1d fraction).
    """
    b = h0 - 0.5
    window = 100.0 * (trunc + t_max)
    grid = -trunc - np.linspace(0.0, window, 20001)
    f = ((t_max - grid) ** b - (-grid) ** b) / b
    tail = np.trapezoid(f**2, dx=abs(grid[1] - grid[0]))
    far = (b * t_max) ** 2 * (trunc + window) ** (2 * b - 1.0) / (1.0 - 2.0 * b)
    c1 = hermite_constant(1, h0)  # q=1 process with the same kernel exponent
    frac_1d = min(1.0, c1**2 * (tail + far) / t_max ** (2 * h0))
    return min(1.0, q * frac_1d)


def simulate_kernel(
    spec: HermiteSpec, n: int, trunc: float, rng: RngState, t_max: float = 1.0
) -> GridPath:
    """Reference discretization of the moving-average kernel representation.

    Supports q in {1, 2} only; O(n * N) for q = 1 and O(n * N^2)-ish work for
    q = 2, where N is the number of psi-cells covering [-trunc, t_max).  The
    Brownian sheet is discretized into independent increments per psi-cell,
    diagonal pairs are excluded exactly, and the singular kernel factor
    (s - psi)_+^(H0 - 3/2) is integrated analytically over each psi-cell.

    The approximation bias is documented in the output metadata:
    ``meta['truncation_bias']`` estimates the variance mass lost to the
    finite past, and ``meta['variance_bias']`` is the exact relative deficit
    1 - E[Z_{t_max}^2] / t_max^(2H) of the whole discrete scheme (for q = 2
    this is dominated by the diagonal band the cell exclusion removes, and
    shrinks only like a fractional power of the cell width).
    """
    if spec.q not in (1, 2):
        raise ValueError(f"kernel generator supports order q in {{1, 2}}, got q={spec.q}")
    if trunc <= 0:
        raise ValueError(f"trunc must be positive, got {trunc}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    width, edges = _kernel_grids(n, trunc, t_max)
    dw = normal_deviates(rng, edges.size - 1) * math.sqrt(width)

    if spec.q == 1:
        a = _kernel_q1_weights(spec.H0, n, trunc, t_max)
        values = spec.c * (a @ dw)
        values[0] = 0.0
    else:
        # s-quadrature at midpoints of subcells finer than the psi-cells;
        # pair sums use sum_{i != j} v_i v_j x_i x_j = (v.x)^2 - sum v_i^2 x_i^2.
        v = _kernel_q2_weights(spec.H0, n, trunc, t_max)
        n_sub = n * _PSI_REFINE * _S_REFINE
        p = v @ dw
        q_diag = (v * v) @ (dw * dw)
        cell = (p * p - q_diag) * (t_max / n_sub)
        cum = np.concatenate([[0.0], np.cumsum(cell)])
        values = spec.c * cum[:: _PSI_REFINE * _S_REFINE]
    tag = f"kernel(q={spec.q},H={spec.H:g},M={trunc:g})"
    meta = {
        "trunc": trunc,
        "truncation_bias": _truncation_bias_estimate(spec.q, spec.H0, spec.c, t_max, trunc),
        "variance_bias": _kernel_variance_deficit(spec.q, spec.H0, spec.c, n, trunc, t_max),
        "psi_step": width,
    }
    return GridPath(t_max, n, values, Provenance(rng.seed, rng.stream, tag), meta)


def running_max_abs(path: GridPath) -> GridPath:
    """Running maximum of |values|: out[i] = max_{j<=i} |in[j]| (nondecreasing)."""
    return path.with_values(np.maximum.accumulate(np.abs(path.values)), "running-max-abs")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_path_csv(path: GridPath, fh) -> None:
    """Write a path as CSV: header ``t,value``, 17 significant digits.

    The provenance and ``meta`` are echoed first as '#'-prefixed lines.
    """
    prov = path.provenance
    fh.write(f"# generator={prov.tag} seed={prov.seed} stream={prov.stream}\n")
    fh.write(f"# t_max={_fmt(path.t_max)} n={path.n}\n")
    for key in sorted(path.meta):
        value = path.meta[key]
        text = _fmt(value) if isinstance(value, (float, np.floating)) else str(value)
        fh.write(f"# {key}={text}\n")
    fh.write("t,value\n")
    times = path.times
    for i in range(path.n + 1):
        fh.write(f"{_fmt(times[i])},{_fmt(path.values[i])}\n")


def read_path_csv(fh) -> GridPath:
    """Read a path written by write_path_csv (comment lines are skipped)."""
    header = None
    rows = []
    for line in fh:
        line = line.strip()
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
    t_max = times[-1]
    if t_max <= 0 or not np.allclose(times, np.arange(n + 1) * (t_max / n), atol=1e-9):
        raise ValueError("path CSV must be sampled on a uniform grid starting at 0")
    return GridPath(t_max, n, values, Provenance(0, 0, "csv"))
