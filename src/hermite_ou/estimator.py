"""Minimum L1-norm drift estimation for the exponential-skeleton OU model.

The estimator minimizes S(theta) = int |X_t - x0 e^(theta t)| dt over a
compact search interval.  S is continuous but not smooth, so the minimizer
is located by a coarse scan (guarding against non-unimodality, one blocked
array reduction over the theta grid) followed by golden-section refinement
inside the best bracket; ties are always broken toward the smaller theta,
which makes the selection deterministic.  Several paths on one grid (one
driving path at several noise levels) are minimized in lockstep: the scan's
skeletons are shared and each refinement step is one array pass over the
paths, with the same result per path as minimizing it alone.

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
    "minimize_l1_rows",
    "skeleton_separation",
    "weighted_median",
    "tangent_l1_coefficient",
    "tangent_l1_coefficient_rows",
    "tangent_l1_objective",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TIE_TOL = 1e-12  # objective values this close count as tied
_SCAN_BLOCK = 1 << 16  # grid values of the coarse scan's two block buffers (512 KiB of doubles)
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


def _skeleton_rows(thetas, times: np.ndarray, x0: float, out: np.ndarray) -> np.ndarray:
    """x0 e^(theta t) on the grid ``times``, one row per theta, built in ``out``."""
    np.multiply.outer(thetas, times, out=out)
    np.exp(out, out=out)
    np.multiply(out, x0, out=out)
    return out


def _l1_rows(values: np.ndarray, skeletons: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """Trapezoid integral of |values - skeleton| per row of ``skeletons``
    (``values`` one path or one path per row), with the operations of
    l1_objective; the deviations are built in ``out``."""
    np.subtract(values, skeletons, out=out)
    np.abs(out, out=out)
    return ((out[:, 0] + out[:, -1]) / 2 + out[:, 1:-1].sum(axis=1)) * dt


def _coarse_scan(xs: list, thetas: np.ndarray, x0: float) -> np.ndarray:
    """l1_objective(xs[r], theta, x0) for every path r and every theta in
    ``thetas``, bit for bit, as an array of shape (len(xs), thetas.size).

    The paths share one grid.  The skeletons x0 e^(theta t) of a block of
    theta values are built once and serve every path; each path's
    deviations go to a second buffer of the same shape.  The two take
    ``_SCAN_BLOCK`` grid values together (one row each when a row is
    longer): twice that, freed at the top of a thread's heap, was trimmed
    and faulted in again on some calls.
    """
    times, dt = xs[0].times, xs[0].dt
    rows = max(1, _SCAN_BLOCK // (2 * times.size))
    skel, dev = np.empty((2, min(rows, thetas.size), times.size))
    out = np.empty((len(xs), thetas.size))
    for start in range(0, thetas.size, rows):
        block = thetas[start : start + rows]
        s = _skeleton_rows(block, times, x0, skel[: block.size])
        for r, x in enumerate(xs):
            out[r, start : start + block.size] = _l1_rows(x.values, s, dt, dev[: block.size])
    return out


def _objective_at(values: np.ndarray, thetas: list, grid: GridPath, x0: float) -> np.ndarray:
    """l1_objective at thetas[r] of the path in row r of ``values`` (all on
    ``grid``), for every r, bit for bit, in one array pass."""
    skel = _skeleton_rows(thetas, grid.times, x0, np.empty(values.shape))
    return _l1_rows(values, skel, grid.dt, skel)


def _check_window(values: np.ndarray, grid: GridPath, x0: float, cfg: EstimatorConfig) -> None:
    """Raise ValueError where e^(theta t), x0 e^(theta t) or the row sum of
    the L1 objective would overflow a double for some theta in the window
    and some path, one per row of ``values``, on ``grid``."""
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    lo, hi = cfg.theta_lo * grid.t_max, cfg.theta_hi * grid.t_max
    # the row sum has n + 1 terms, each at most 2 max(|x0|, max|X|) e^(max(theta t, 0));
    # max(., 1) also keeps e^(theta t) itself finite
    size = max(abs(x0), float(np.max(np.abs(values))), 1.0)
    headroom = _LOG_MAX - math.log(2 * (grid.n + 1) * size)
    if headroom < 0:
        raise ValueError(
            f"path values overflow: the L1 objective of {grid.n + 1} grid points with "
            f"max(|x0|, max|X|) = {size:.6g} is not a finite double"
        )
    if not (math.isfinite(lo) and max(hi, 0.0) <= headroom):
        raise ValueError(
            f"window [{cfg.theta_lo}, {cfg.theta_hi}] overflows: x0 e^(theta t) with "
            f"x0 = {x0} is not a finite double on t in [0, {grid.t_max}]"
        )


class _GoldenSection:
    """One path's refinement: the best coarse point, the golden-section
    bracket [a, b] around it with interior points c < d, and their objective
    values.  ``step`` shrinks the bracket and returns the one new point to
    evaluate; ``take`` stores its value; ``result`` picks the estimate."""

    __slots__ = ("best", "a", "b", "c", "d", "fc", "fd", "moved_left", "n_evals")

    def __init__(self, thetas: np.ndarray, scan: np.ndarray):
        k = int(np.flatnonzero(scan <= scan.min() + _TIE_TOL)[0])
        self.best = (float(thetas[k]), float(scan[k]))
        a, b = float(thetas[max(k - 1, 0)]), float(thetas[min(k + 1, thetas.size - 1)])
        self.a, self.b = a, b
        self.c = b - _INVPHI * (b - a)
        self.d = a + _INVPHI * (b - a)
        self.n_evals = thetas.size + 2  # the scan, then the two interior points

    def step(self) -> float:
        self.moved_left = self.fc <= self.fd + _TIE_TOL  # ties move left, toward smaller theta
        if self.moved_left:
            self.b, self.d, self.fd = self.d, self.c, self.fc
            self.c = self.b - _INVPHI * (self.b - self.a)
            return self.c
        self.a, self.c, self.fc = self.c, self.d, self.fd
        self.d = self.a + _INVPHI * (self.b - self.a)
        return self.d

    def take(self, value: float) -> None:
        self.n_evals += 1
        if self.moved_left:
            self.fc = value
        else:
            self.fd = value

    def result(self) -> EstimateResult:
        best_theta, best_val = self.best
        for theta, val in ((self.c, self.fc), (self.d, self.fd)):
            if val < best_val - _TIE_TOL or (val <= best_val + _TIE_TOL and theta < best_theta):
                best_theta, best_val = theta, val
        return EstimateResult(best_theta, best_val, self.n_evals, (self.a, self.b))


def minimize_l1_rows(xs: list, x0: float, cfg: EstimatorConfig) -> list:
    """minimize_l1 of every path in ``xs``, which share one grid: one
    EstimateResult per path, in order.

    The paths are minimized in lockstep.  The coarse-scan skeletons are
    built once for all of them, and each golden-section step evaluates the
    new point of every path whose bracket is still wider than
    ``refine_tol`` in one array pass.  Every bracket, comparison and tie is
    still decided per path with the arithmetic of a one-path loop, so each
    result, ``n_evals`` included, is the one that path gets alone.  A window
    on which a skeleton would overflow raises ValueError, as does a path on
    another grid than the first.
    """
    grid = xs[0]
    for x in xs:
        if (x.n, x.t_max) != (grid.n, grid.t_max):
            raise ValueError(
                f"paths minimized together must share one grid, got n = {x.n} on "
                f"[0, {x.t_max}] and n = {grid.n} on [0, {grid.t_max}]"
            )
    values = np.stack([x.values for x in xs])
    _check_window(values, grid, x0, cfg)
    thetas = np.linspace(cfg.theta_lo, cfg.theta_hi, cfg.coarse_points)
    coarse = _coarse_scan(xs, thetas, x0)

    rows = [_GoldenSection(thetas, scan) for scan in coarse]
    for g, fc, fd in zip(
        rows,
        _objective_at(values, [g.c for g in rows], grid, x0).tolist(),
        _objective_at(values, [g.d for g in rows], grid, x0).tolist(),
    ):
        g.fc, g.fd = fc, fd

    active = [r for r, g in enumerate(rows) if g.b - g.a > cfg.refine_tol]
    while active:
        points = [rows[r].step() for r in active]
        for r, value in zip(active, _objective_at(values[active], points, grid, x0).tolist()):
            rows[r].take(value)
        active = [r for r in active if rows[r].b - rows[r].a > cfg.refine_tol]
    return [g.result() for g in rows]


def minimize_l1(x: GridPath, x0: float, cfg: EstimatorConfig) -> EstimateResult:
    """Minimum L1-norm drift estimate over [theta_lo, theta_hi].

    Coarse scan on ``coarse_points`` equally spaced values, then
    golden-section refinement in the bracketing triple until the bracket is
    narrower than ``refine_tol``.  Under ties (within 1e-12 on S) the
    smaller theta wins.  A boundary minimizer is flagged by the returned
    bracket touching the interval end.  A window on which the skeleton
    would overflow raises ValueError.  This is minimize_l1_rows of the one
    path, which returns the same result for each of several paths.
    """
    return minimize_l1_rows([x], x0, cfg)[0]


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
    if v.size == 0 or v.ndim != 1 or v.shape != w.shape:
        raise ValueError("values and weights must be nonempty and equally long")
    if not np.all(w >= 0):
        raise ValueError("weights must be nonnegative")
    return float(_weighted_median_rows(v, w))


def _weighted_median_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weighted_median along the last axis of ``values``, for every row at
    once; ``weights`` (finite, nonnegative) has the shape of ``values`` or of
    one row.  Each row is sorted stably and summed in sorted order as in a
    one-row call, and the first index whose cumulative weight reaches half
    the total is counted rather than searched, so every row's pick is the
    one its own call makes."""
    order = np.argsort(values, axis=-1, kind="stable")
    w = np.broadcast_to(weights, values.shape)
    cum = np.cumsum(np.take_along_axis(w, order, axis=-1), axis=-1)
    # cum is nondecreasing, so the entries below half the total are a prefix
    idx = np.minimum(np.count_nonzero(cum < 0.5 * cum[..., -1:], axis=-1), values.shape[-1] - 1)
    pick = np.take_along_axis(order, np.asarray(idx)[..., np.newaxis], axis=-1)
    return np.take_along_axis(values, pick, axis=-1)[..., 0]


def _tangent_weights(grid: GridPath, theta0: float, x0: float) -> np.ndarray:
    """Left-endpoint weights t_i x0 e^(theta0 t_i), i = 1..n-1, of
    int_0^1 |Y_t - u t x0 e^(theta0 t)| dt on ``grid``.

    The t = 0 term carries zero weight, so it is dropped.
    """
    if x0 == 0.0:
        raise ValueError("x0 = 0 leaves the fit coefficient unidentified")
    t = grid.times[:-1]
    return (t * x0 * np.exp(theta0 * t))[1:]


def tangent_l1_coefficient_rows(
    ys: np.ndarray, grid: GridPath, theta0: float, x0: float
) -> np.ndarray:
    """tangent_l1_coefficient of every row of ``ys``, each a noise response
    on ``grid``: the weights are built once, and the ratios and weighted
    medians are row passes with every row's result bit for bit its own."""
    w = _tangent_weights(grid, theta0, x0)
    return _weighted_median_rows(ys[..., 1 : grid.n] / w, grid.dt * np.abs(w))


def tangent_l1_coefficient(y: GridPath, theta0: float, x0: float) -> float:
    """Exact minimizer of the discretized weighted L1 tangent fit.

    With w_i = t_i x0 e^(theta0 t_i) the objective sum_i dt |Y_i - u w_i|
    equals sum_i (dt |w_i|) |Y_i / w_i - u|, whose minimizer is the weighted
    median of the ratios.  This is tangent_l1_coefficient_rows of the one
    path.
    """
    return float(tangent_l1_coefficient_rows(y.values, y, theta0, x0))


def tangent_l1_objective(y: GridPath, u: float, theta0: float, x0: float) -> float:
    """The discretized tangent-fit objective at u (convex, piecewise linear)."""
    w = _tangent_weights(y, theta0, x0)
    return float(y.dt * np.sum(np.abs(y.values[1 : y.n] - u * w)))
