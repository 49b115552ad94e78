"""Minimum L1-norm drift estimation for the exponential-skeleton OU model.

The estimator minimizes S(theta) = int |X_t - x0 e^(theta t)| dt over a
compact search interval.  S is continuous but not smooth, so the minimizer
is located by a coarse pick on an equally spaced theta grid (guarding
against non-unimodality) followed by golden-section refinement inside the
best bracket; ties are always broken toward the smaller theta, which makes
the selection deterministic.  The coarse pick is that of the full table of
S on the grid, but S is evaluated only where the lower bound
|int (X_t - x0 e^(theta t)) dt| <= S(theta) leaves a point in contention.
The paths of a block, each at several noise levels, are minimized in
lockstep as the rows of one array: the refinement state (bracket, interior
points and their values) is one (6, rows) array, and each refinement step
is one array pass over every row, with the same result per row as
minimizing it alone.

The small-noise limit of the rescaled error is the minimizer of a weighted
L1 fit of the noise response Y to the tangent curve t x0 e^(theta0 t);
discretized, that is a weighted median of ratios and is solved exactly.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .hermite import GridPath, _check_integer

__all__ = [
    "EstimatorConfig",
    "EstimateResult",
    "l1_objective",
    "minimize_l1",
    "minimize_l1_rows",
    "skeleton_separation",
    "tangent_l1_coefficient",
    "tangent_l1_objective",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TIE_TOL = 1e-12  # objective values this close count as tied
_SCAN_BLOCK = 1 << 16  # grid values of the coarse pick's skeleton buffer (512 KiB of doubles)
_BOUND_SLACK = 1e-9  # relative rounding allowance of the coarse pick's lower bound
_MAX_COARSE_POINTS = 1 << 20  # coarse grid of at most 8 MiB of theta values
_LOG_MAX = math.log(np.finfo(float).max)

# a golden-section step of a row whose bracket is closed (0), moves left (1)
# or moves right (2), on the state (a, b, c, fc, d, fd): column ``move`` of
# _SHIFT names the entry each takes; the slot of the new point (c, fc on a
# left step, d, fd on a right one) keeps its old entry until it is written
_LEFT, _RIGHT = 1, 2
_SHIFT = np.array([[0, 1, 2, 3, 4, 5], [0, 4, 2, 3, 2, 3], [2, 1, 4, 5, 4, 5]]).T
_NEW_POINT = np.array([[[_LEFT]], [[_RIGHT]]])  # move == _NEW_POINT: which of (c, fc), (d, fd) takes it


@dataclass(frozen=True)
class EstimatorConfig:
    """Search interval, coarse-grid resolution and refinement tolerance."""

    theta_lo: float
    theta_hi: float
    coarse_points: int = 201
    refine_tol: float = 1e-8

    def __post_init__(self):
        if not self.theta_lo < self.theta_hi:
            raise ValueError(
                f"need theta_lo < theta_hi, got [{self.theta_lo}, {self.theta_hi}]"
            )
        object.__setattr__(self, "coarse_points", _check_integer("coarse_points", self.coarse_points))
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


def _trapezoid_rows(a: np.ndarray) -> np.ndarray:
    """Trapezoid sum of every row of ``a``, without the factor dt."""
    return (a[:, 0] + a[:, -1]) / 2 + a[:, 1:-1].sum(axis=1)


def _l1_rows(values: np.ndarray, skeletons: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """Trapezoid integral of |values - skeleton| per row of ``skeletons``
    (``values`` one path or one path per row), with the operations of
    l1_objective; the deviations are built in ``out``."""
    np.subtract(values, skeletons, out=out)
    np.abs(out, out=out)
    return _trapezoid_rows(out) * dt


def _coarse_pick(values: np.ndarray, grid: GridPath, thetas: np.ndarray, x0: float) -> tuple:
    """(k, S) per row of ``values`` (paths on ``grid``): the first index k of
    ``thetas`` whose l1_objective is within _TIE_TOL of the row's minimum
    over ``thetas``, and that objective, bit for bit those of the full
    table, which is not built.

    By the triangle inequality S(theta) >= |int (X - x0 e^(theta t)) dt|.
    Its trapezoid form (|A - T(theta)| - _BOUND_SLACK (n max|X| + |T(theta)|)) dt,
    with A and T(theta) the trapezoid sums of the row and of the skeleton,
    is a lower bound lo that keeps about 10^4 times their rounding error in
    hand.  S is evaluated at each row's smallest-bound theta, which gives
    u >= the row's minimum, and then at every theta with lo <= u + _TIE_TOL:
    no other theta can come within _TIE_TOL of the minimum.  Both are passes
    over (row, theta) pairs, computed as the objective computes S, in chunks
    of half a buffer of at most _SCAN_BLOCK grid values (a row a half when a
    row is longer): the skeletons and their deviations in one half, the
    gathered rows in the other.  Twice that buffer, freed at the top of a
    thread's heap, was trimmed and faulted in again on some calls.
    """
    times, dt = grid.times, grid.dt
    per = max(1, _SCAN_BLOCK // (2 * times.size))
    skel, gathered = np.empty((2, min(per, thetas.size * len(values)), times.size))
    total = np.empty(thetas.size)  # T(theta)
    for start in range(0, thetas.size, per):
        block = thetas[start : start + per]
        total[start : start + block.size] = _trapezoid_rows(_skeleton_rows(block, times, x0, skel[: block.size]))
    lo = np.subtract.outer(_trapezoid_rows(values), total)
    np.abs(lo, out=lo)
    np.abs(total, out=total)
    lo -= _BOUND_SLACK * total
    lo -= (_BOUND_SLACK * grid.n) * np.maximum(values.max(axis=1), -values.min(axis=1))[:, np.newaxis]
    lo *= dt

    def l1_at(r, k):  # S of row r[j] at thetas[k[j]], for every j
        out = np.empty(r.size)
        for start in range(0, r.size, per):
            rb, kb = r[start : start + per], k[start : start + per]
            s = _skeleton_rows(thetas[kb], times, x0, skel[: rb.size])
            # mode="clip": the indices are in range, and "raise" would copy ``out`` first
            x = np.take(values, rb, axis=0, out=gathered[: rb.size], mode="clip")
            out[start : start + rb.size] = _l1_rows(x, s, dt, s)
        return out

    rows = np.arange(len(values))
    first = lo.argmin(axis=1)
    u = l1_at(rows, first)
    more = lo <= (u + _TIE_TOL)[:, np.newaxis]
    more[rows, first] = False
    objective = lo  # the bounds are spent: S where evaluated, inf elsewhere
    objective.fill(math.inf)
    objective[rows, first] = u
    objective[more] = l1_at(*np.nonzero(more))  # a mask assigns in the order nonzero lists
    k = np.argmax(objective <= objective.min(axis=1, keepdims=True) + _TIE_TOL, axis=1)
    return k, objective[rows, k]


def _objective_at(values: np.ndarray, thetas: np.ndarray, grid: GridPath, x0: float) -> np.ndarray:
    """l1_objective at thetas[r] of the path in row r of ``values`` (all on
    ``grid``), for every r, bit for bit, in one array pass: one theta per
    row, and ``values`` itself is read, never a copy of some of its rows."""
    skel = _skeleton_rows(thetas, grid.times, x0, np.empty(values.shape))
    return _l1_rows(values, skel, grid.dt, skel)


def _check_rows(values: np.ndarray) -> float:
    """max |X| over ``values``; ValueError where a row holds a non-finite value."""
    top = max(float(values.max()), -float(values.min()))  # NaN if any X is NaN
    if not math.isfinite(top):
        raise ValueError("path contains non-finite values")
    return top


def _check_normal_start(x0: float) -> None:
    """Raise ValueError where x0 is zero or subnormal: every skeleton
    x0 e^(theta t) is then (nearly) 0, so theta is not identified.  The
    minimiser itself accepts any finite x0; this is the rule of the
    experiment config and of the CLI's estimate."""
    if abs(x0) < sys.float_info.min:
        raise ValueError(f"x0 must be nonzero and normal, got {x0}: every skeleton is then (nearly) 0")


def _check_skeleton(n: int, t_max: float, x0: float, top: float, cfg: EstimatorConfig) -> None:
    """Raise ValueError where e^(theta t), x0 e^(theta t) or the row sum of
    the L1 objective of paths with max |X| = ``top`` on n steps over
    [0, t_max] would overflow a double for some theta in the window.  At
    top = 0 it fails only for windows on which every path fails."""
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0}")
    lo, hi = cfg.theta_lo * t_max, cfg.theta_hi * t_max
    # the row sum has n + 1 terms, each at most 2 max(|x0|, max|X|) e^(max(theta t, 0));
    # max(., 1) also keeps e^(theta t) itself finite
    size = max(abs(x0), top, 1.0)
    headroom = _LOG_MAX - math.log(2 * (n + 1) * size)
    if headroom < 0:
        raise ValueError(
            f"path values overflow: the L1 objective of {n + 1} grid points with "
            f"max(|x0|, max|X|) = {size:.6g} is not a finite double"
        )
    if not (math.isfinite(lo) and max(hi, 0.0) <= headroom):
        raise ValueError(
            f"window [{cfg.theta_lo}, {cfg.theta_hi}] overflows: x0 e^(theta t) with "
            f"x0 = {x0} is not a finite double on t in [0, {t_max}]"
        )


def minimize_l1_rows(values: np.ndarray, grid: GridPath, x0: float, cfg: EstimatorConfig) -> list:
    """minimize_l1 of the path in every row of ``values``, a (rows, n + 1)
    array on the grid of ``grid``: one EstimateResult per row, in order.

    The rows are minimized in lockstep.  The coarse pick (_coarse_pick)
    evaluates each row's objective only where its lower bound leaves the
    coarse point in contention.  The refinement state is one (6, rows)
    array, shifted by one gather per golden-section step, and each step is
    one ``_objective_at`` pass over every row; a row whose bracket is
    already narrower than ``refine_tol`` keeps its state, and its value
    from that pass is unused.  Every bracket, comparison and tie is decided
    per row with the IEEE operations of a one-path loop, so each result is
    the one that path gets alone.  Its ``n_evals`` counts the coarse points,
    the two interior points and the row's own steps, not the passes made
    after its bracket closed.
    Rows of another shape than (rows, n + 1), a non-finite value, or a
    window on which a skeleton would overflow raise ValueError.
    """
    if values.ndim != 2 or values.shape[1] != grid.n + 1:
        raise ValueError(f"values must be (rows, n + 1 = {grid.n + 1}) path rows, got shape {values.shape}")
    _check_skeleton(grid.n, grid.t_max, x0, _check_rows(values), cfg)
    thetas = np.linspace(cfg.theta_lo, cfg.theta_hi, cfg.coarse_points)
    k, best_val = _coarse_pick(values, grid, thetas, x0)

    # the bracket [a, b] of the picked point's neighbours, with interior points c < d
    best = thetas[k]
    a, b = thetas[np.maximum(k - 1, 0)], thetas[np.minimum(k + 1, thetas.size - 1)]
    step = _INVPHI * (b - a)
    c, d = b - step, a + step
    fc, fd = _objective_at(values, c, grid, x0), _objective_at(values, d, grid, x0)
    n_evals = np.full(len(values), thetas.size + 2)  # the coarse points, then the two interior points

    rows = np.arange(len(values))
    state = np.array([a, b, c, fc, d, fd])  # one column per row
    while (active := state[1] - state[0] > cfg.refine_tol).any():
        # ties move left, toward smaller theta
        move = np.where(state[3] <= state[5] + _TIE_TOL, _LEFT, _RIGHT) * active
        state = state[_SHIFT[:, move], rows]
        step = _INVPHI * (state[1] - state[0])
        theta = np.where(move == _LEFT, state[1] - step, state[0] + step)
        value = _objective_at(values, theta, grid, x0)
        np.copyto(state[2:].reshape(2, 2, -1), [theta, value], where=move == _NEW_POINT)
        n_evals += active

    a, b, c, fc, d, fd = state
    for theta, val in ((c, fc), (d, fd)):
        take = (val < best_val - _TIE_TOL) | ((val <= best_val + _TIE_TOL) & (theta < best))
        best, best_val = np.where(take, theta, best), np.where(take, val, best_val)
    return [
        EstimateResult(theta, val, evals, (lo, hi))
        for theta, val, evals, lo, hi in zip(
            best.tolist(), best_val.tolist(), n_evals.tolist(), a.tolist(), b.tolist()
        )
    ]


def minimize_l1(x: GridPath, x0: float, cfg: EstimatorConfig) -> EstimateResult:
    """Minimum L1-norm drift estimate over [theta_lo, theta_hi].

    Coarse pick on ``coarse_points`` equally spaced values, then
    golden-section refinement in the bracketing triple until the bracket is
    narrower than ``refine_tol``.  Under ties (within 1e-12 on S) the
    smaller theta wins.  A boundary minimizer is flagged by the returned
    bracket touching the interval end.  A window on which the skeleton
    would overflow raises ValueError.  This is minimize_l1_rows of the one
    path, which returns the same result for each of several paths.
    """
    return minimize_l1_rows(x.values[np.newaxis], x, x0, cfg)[0]


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


def _weighted_median_rows(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Minimizer of sum_i w_i |v_i - u| along the last axis of ``values``,
    for every row at once: the first sorted value whose cumulative weight
    reaches half the total (the lower median under an even split).
    ``weights`` (finite, nonnegative) has the shape of ``values`` or of one
    row.  Each row is sorted stably and summed in sorted order as in a
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


def _tangent_weights(times: np.ndarray, theta0: float, x0: float) -> np.ndarray:
    """Left-endpoint weights t_i x0 e^(theta0 t_i), i = 1..n-1, of
    int_0^1 |Y_t - u t x0 e^(theta0 t)| dt on the grid times t_0 .. t_n.

    The t = 0 term carries zero weight, so it is dropped.  The one
    definition of the weights: the fit, its objective and the experiment
    config's check of their size all call it.
    """
    if not (math.isfinite(x0) and math.isfinite(theta0)):
        raise ValueError(f"x0 and theta0 must be finite, got x0 = {x0}, theta0 = {theta0}")
    if x0 == 0.0:
        raise ValueError("x0 = 0 leaves the fit coefficient unidentified")
    t = times[:-1]
    return (t * x0 * np.exp(theta0 * t))[1:]


def tangent_l1_coefficient(ys: np.ndarray, grid: GridPath, theta0: float, x0: float) -> np.ndarray:
    """Exact minimizer of the discretized weighted L1 tangent fit, for every
    row of ``ys``, each a noise response on ``grid`` (one 1-D row gives a
    0-d array).

    With w_i = t_i x0 e^(theta0 t_i) the objective sum_i dt |Y_i - u w_i|
    equals sum_i (dt |w_i|) |Y_i / w_i - u|, whose minimizer is the weighted
    median of the ratios.  The rows are solved as row passes with every
    row's result bit for bit its own; a ratio that is not finite (a
    subnormal x0 overflows) raises ValueError.
    """
    w = _tangent_weights(grid.times, theta0, x0)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = ys[..., 1 : grid.n] / w
    if not np.isfinite(ratios).all():
        raise ValueError(f"x0 = {x0}: a tangent-fit ratio Y_i / (t_i x0 e^(theta0 t_i)) is not finite")
    return _weighted_median_rows(ratios, grid.dt * np.abs(w))


def tangent_l1_objective(y: GridPath, u: float, theta0: float, x0: float) -> float:
    """The discretized tangent-fit objective at u (convex, piecewise linear)."""
    w = _tangent_weights(y.times, theta0, x0)
    return float(y.dt * np.sum(np.abs(y.values[1 : y.n] - u * w)))
