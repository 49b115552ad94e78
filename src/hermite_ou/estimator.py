"""Minimum L1-norm drift estimation for the exponential-skeleton OU model.

The estimator minimizes S(theta) = int |X_t - x0 e^(theta t)| dt over a
compact search interval.  S is continuous but not smooth, so the minimizer
is located by a coarse scan (guarding against non-unimodality, one blocked
array reduction over the theta grid) followed by golden-section refinement
inside the best bracket; ties are always broken toward the smaller theta,
which makes the selection deterministic.

The small-noise limit of the rescaled error is the minimizer of a weighted
L1 fit of the noise response Y to the tangent curve t x0 e^(theta0 t);
discretized, that is a weighted median of ratios and is solved exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .hermite import GridPath

__all__ = [
    "EstimatorConfig",
    "EstimateResult",
    "l1_objective",
    "minimize_l1",
    "skeleton_separation",
    "weighted_median",
    "tangent_l1_coefficient",
    "tangent_l1_objective",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TIE_TOL = 1e-12  # objective values this close count as tied
_SCAN_BLOCK = 1 << 16  # grid values per coarse-scan block (512 KiB of doubles)
_MAX_COARSE_POINTS = 1 << 20  # coarse-scan grid of at most 8 MiB of theta values
_LOG_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class EstimatorConfig:
    """Search interval, coarse-scan resolution and refinement tolerance."""

    theta_lo: float
    theta_hi: float
    coarse_points: int = 201
    refine_tol: float = 1e-8

    def __post_init__(self):
        if not self.theta_lo < self.theta_hi:
            raise ValueError(
                f"need theta_lo < theta_hi, got [{self.theta_lo}, {self.theta_hi}]"
            )
        if not 3 <= self.coarse_points <= _MAX_COARSE_POINTS:
            raise ValueError(
                f"coarse_points must be in [3, {_MAX_COARSE_POINTS}], got {self.coarse_points}"
            )
        # a NaN or infinite tolerance would end the refinement before it starts
        if not 0 < self.refine_tol < math.inf:
            raise ValueError(f"refine_tol must be positive and finite, got {self.refine_tol}")


@dataclass(frozen=True)
class EstimateResult:
    theta_hat: float
    objective_value: float
    n_evals: int
    bracket: tuple


def l1_objective(x: GridPath, theta: float, x0: float) -> float:
    """S(theta): trapezoidal integral of |X_t - x0 e^(theta t)| over the grid."""
    dev = np.abs(x.values - x0 * np.exp(theta * x.times))
    return float((dev[0] + dev[-1]) / 2 + dev[1:-1].sum()) * x.dt


def _coarse_scan(x: GridPath, thetas: np.ndarray, x0: float) -> np.ndarray:
    """l1_objective(x, theta, x0) for every theta in ``thetas``, bit for bit.

    Rows |X_t - x0 e^(theta t)| for a block of theta values are built in
    place in one reused buffer of ``_SCAN_BLOCK`` grid values (one row when
    a row is longer) and reduced with the same trapezoid sum.
    """
    times = x.times
    rows = max(1, _SCAN_BLOCK // times.size)
    buf = np.empty((min(rows, thetas.size), times.size))
    out = np.empty(thetas.size)
    for start in range(0, thetas.size, rows):
        block = thetas[start : start + rows]
        b = buf[: block.size]
        np.multiply.outer(block, times, out=b)
        np.exp(b, out=b)
        np.multiply(b, x0, out=b)
        np.subtract(x.values, b, out=b)
        np.abs(b, out=b)
        row_sums = (b[:, 0] + b[:, -1]) / 2 + b[:, 1:-1].sum(axis=1)
        out[start : start + block.size] = row_sums * x.dt
    return out


def _check_window(x: GridPath, x0: float, cfg: EstimatorConfig) -> None:
    """Raise ValueError where e^(theta t), x0 e^(theta t) or the row sum of
    the L1 objective would overflow a double for some theta in the window."""
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    lo, hi = cfg.theta_lo * x.t_max, cfg.theta_hi * x.t_max
    # the row sum has n + 1 terms, each at most 2 max(|x0|, max|X|) e^(max(theta t, 0));
    # max(., 1) also keeps e^(theta t) itself finite
    size = max(abs(x0), float(np.max(np.abs(x.values))), 1.0)
    headroom = _LOG_MAX - math.log(2 * (x.n + 1) * size)
    if headroom < 0:
        raise ValueError(
            f"path values overflow: the L1 objective of {x.n + 1} grid points with "
            f"max(|x0|, max|X|) = {size:.6g} is not a finite double"
        )
    if not (math.isfinite(lo) and max(hi, 0.0) <= headroom):
        raise ValueError(
            f"window [{cfg.theta_lo}, {cfg.theta_hi}] overflows: x0 e^(theta t) with "
            f"x0 = {x0} is not a finite double on t in [0, {x.t_max}]"
        )


def minimize_l1(x: GridPath, x0: float, cfg: EstimatorConfig) -> EstimateResult:
    """Minimum L1-norm drift estimate over [theta_lo, theta_hi].

    Coarse scan on ``coarse_points`` equally spaced values, then
    golden-section refinement in the bracketing triple until the bracket is
    narrower than ``refine_tol``.  Under ties (within 1e-12 on S) the
    smaller theta wins.  A boundary minimizer is flagged by the returned
    bracket touching the interval end.  A window on which the skeleton
    would overflow raises ValueError.
    """
    _check_window(x, x0, cfg)
    thetas = np.linspace(cfg.theta_lo, cfg.theta_hi, cfg.coarse_points)
    coarse = _coarse_scan(x, thetas, x0)
    n_evals = cfg.coarse_points

    def objective(theta):
        nonlocal n_evals
        n_evals += 1
        return l1_objective(x, theta, x0)

    k = int(np.flatnonzero(coarse <= coarse.min() + _TIE_TOL)[0])
    a = thetas[max(k - 1, 0)]
    b = thetas[min(k + 1, cfg.coarse_points - 1)]
    best_theta, best_val = float(thetas[k]), float(coarse[k])

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > cfg.refine_tol:
        if fc <= fd + _TIE_TOL:  # ties move left, toward smaller theta
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
    for theta, val in ((c, fc), (d, fd)):
        if val < best_val - _TIE_TOL or (val <= best_val + _TIE_TOL and theta < best_theta):
            best_theta, best_val = float(theta), float(val)
    return EstimateResult(best_theta, best_val, n_evals, (float(a), float(b)))


def _skeleton_l1_distance(theta: float, theta0: float, x0: float) -> float:
    """|x0| * int_0^1 |e^(theta t) - e^(theta0 t)| dt, in closed form.

    The integrand has constant sign (e^(theta t) is monotone in theta
    pointwise), so the integral is |I(theta) - I(theta0)| with
    I(v) = (e^v - 1)/v and I(0) = 1.
    """

    def growth(v):
        return (math.expm1(v) / v) if v != 0.0 else 1.0

    return abs(x0) * abs(growth(theta) - growth(theta0))


def skeleton_separation(delta: float, theta0: float, x0: float, cfg: EstimatorConfig) -> float:
    """inf over |theta - theta0| > delta of the L1 distance between skeletons.

    For the exponential skeleton the infimum is attained at theta0 +/- delta
    (pointwise monotonicity in |theta - theta0|), so the value is exact.
    Positive whenever x0 != 0; an x0 of 0 degenerates the model and is
    reported with a warning.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not (cfg.theta_lo < theta0 - delta and theta0 + delta < cfg.theta_hi):
        raise ValueError(
            f"[theta0 - delta, theta0 + delta] = [{theta0 - delta}, {theta0 + delta}] "
            f"must lie inside ({cfg.theta_lo}, {cfg.theta_hi})"
        )
    if x0 == 0.0:
        warnings.warn("x0 = 0 makes every skeleton identical; separation is 0")
        return 0.0
    return min(
        _skeleton_l1_distance(theta0 + delta, theta0, x0),
        _skeleton_l1_distance(theta0 - delta, theta0, x0),
    )


def weighted_median(values, weights) -> float:
    """Minimizer of sum_i w_i |v_i - u|: first sorted value whose cumulative
    weight reaches half the total (the lower median under an even split)."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.size == 0 or v.shape != w.shape:
        raise ValueError("values and weights must be nonempty and equally long")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    idx = int(np.searchsorted(cum, 0.5 * cum[-1], side="left"))
    return float(v[order][min(idx, v.size - 1)])


def _tangent_terms(y: GridPath, theta0: float, x0: float):
    """Left-endpoint weights and targets of int_0^1 |Y_t - u t x0 e^(theta0 t)| dt.

    The t = 0 term carries zero weight, so it is dropped.
    """
    if x0 == 0.0:
        raise ValueError("x0 = 0 leaves the fit coefficient unidentified")
    t = y.times[:-1]
    w = t * x0 * np.exp(theta0 * t)
    return y.values[: y.n][1:], w[1:]


def tangent_l1_coefficient(y: GridPath, theta0: float, x0: float) -> float:
    """Exact minimizer of the discretized weighted L1 tangent fit.

    With w_i = t_i x0 e^(theta0 t_i) the objective sum_i dt |Y_i - u w_i|
    equals sum_i (dt |w_i|) |Y_i / w_i - u|, whose minimizer is the weighted
    median of the ratios.
    """
    yv, w = _tangent_terms(y, theta0, x0)
    return weighted_median(yv / w, y.dt * np.abs(w))


def tangent_l1_objective(y: GridPath, u: float, theta0: float, x0: float) -> float:
    """The discretized tangent-fit objective at u (convex, piecewise linear)."""
    yv, w = _tangent_terms(y, theta0, x0)
    return float(y.dt * np.sum(np.abs(yv - u * w)))
