"""Monte Carlo experiments: consistency, limit distribution, running-maximum
scaling and covariance audits, with deterministic CSV reports.

Every driving path comes from ``_map_paths``, the one map from replication to
RNG stream: replication i < R on grid g of ``ExperimentConfig.grids()`` (one
per horizon T for the maximal kind, one otherwise) draws its path from stream
(seed, g R + i); the limit-dist KS sample continues from stream 10^6.  So a
configuration, seed included, determines every output byte.  The sampler of
a grid comes from ``_driver``, the one place that chooses fBm or partial
sums and checks the grid: once per grid when the config is built, and once
per grid in each ``_map_paths`` call, before its tasks start.  A task is a
block of replications on one grid, cut by memory and work
(``_block_plan``): its paths are sampled one by one into the rows of one
(rows, n + 1) array, and each row pass over it (its OU rows at every eps
are one array) gives every row bit for bit its one-path result, so the
split into blocks never changes an output.
All the tasks of an experiment, of every sample and grid, run on one pool of
worker threads, never on the calling thread: on the main thread glibc trims
its heap after each large temporary is freed, so every FFT and array pass of
the next path faults its pages in again.  The pool size is capped by the
HERMITE_OU_THREADS environment variable (unset/1 = one worker, so one task at
a time; 0 = auto; a negative value is an error) and by the task and CPU
counts; results are aggregated by task index, so the degree of concurrency
never changes the output either.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# minimize_l1, the one-path form of minimize_l1_rows, is imported only for
# bench/tracer.py, which wraps it under this name
from .estimator import (  # noqa: F401
    _LOG_MAX,
    EstimatorConfig,
    _check_normal_start,
    _check_skeleton,
    _tangent_weights,
    minimize_l1,
    minimize_l1_rows,
    skeleton_separation,
    tangent_l1_coefficient,
)
from .hermite import (
    GridPath,
    _check_embedding,
    _unit_steps,
    _write_csv,
    hermite_exponent,
    running_max_abs,
    simulate_fbm,
    simulate_partial_sum,
)
from .integrals import covariance_functional, discounted_integral_rows, noise_response
from .ou import exact_solution
from .rng import RngState, _check_integer

__all__ = [
    "ExperimentConfig",
    "SCHEMAS",
    "KINDS",
    "run_experiment",
    "ks_two_sample",
    "write_rows_csv",
    "band_summaries",
]

SCHEMAS = {
    "consistency": (
        "eps", "delta", "theta0", "q", "H", "n", "reps",
        "p_hat", "se", "bound_coeff", "g_delta", "m_hat", "threshold_ok",
    ),
    "limit-dist": (
        "eps", "theta0", "q", "H", "n", "reps",
        "med_abs_gap", "q90_abs_gap", "ks_stat", "ks_p",
    ),
    "maximal": ("T", "p", "q", "H", "n", "reps", "moment_hat", "se", "ratio_to_TpH"),
    "covariance-audit": ("s", "t", "target", "estimate", "se", "z_score"),
}

KINDS = tuple(SCHEMAS)

GENERATORS = ("auto", "fbm", "partial-sum")

# stream offset separating the independent comparison sample from the
# paired replications in the limit-distribution experiment
_INDEPENDENT_STREAM_BASE = 10**6

# the audit's noise response takes e^(-theta0 t) and e^(theta0 t), each up to
# e^|theta0|, and its se squares products of two responses: this keeps
# e^(4 |theta0|) within the square root of the double range
_AUDIT_THETA_MAX = _LOG_MAX / 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo experiment needs, seed included.

    A sweep (eps, delta, T, p) may not repeat a value.  A limit-dist eps
    needs refine_tol / eps <= 1e-4: u = (theta_hat - theta0) / eps is resolved
    to about refine_tol / eps, and below that it measures the minimiser.  The
    minimiser's absolute tie tolerance ``_TIE_TOL`` sets a floor of its own,
    which this rule does not cover (ROADMAP item 5).
    """

    kind: str
    theta0: float = 1.0
    x0: float = 1.0
    q: int = 1
    H: float = 0.7
    n: int = 512
    m: int = 32
    eps: tuple = (0.1,)
    delta: tuple = (0.5,)
    T: tuple = (1.0,)
    p: tuple = (1.0,)
    replications: int = 200
    seed: int = 0
    out_dir: str = "."
    ks_samples: int = 500
    theta_lo: float = -2.0
    theta_hi: float = 2.0
    coarse_points: int = 201
    refine_tol: float = 1e-8
    generator: str = "auto"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; valid: {', '.join(KINDS)}")
        for name in ("q", "n", "m", "replications", "ks_samples", "coarse_points", "seed"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.kind in ("maximal", "covariance-audit") and self.replications < 2:
            raise ValueError(
                f"{self.kind} needs replications >= 2, got {self.replications}: "
                "its standard errors are sample standard deviations"
            )
        RngState(self.seed)  # checks the seed's range
        for name in ("theta0", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        _check_normal_start(self.x0)
        for name in ("eps", "delta", "T", "p"):
            sweep = tuple(float(v) for v in getattr(self, name))
            if len(sweep) == 0:
                raise ValueError(f"sweep {name} must be nonempty")
            if not all(0 < v < math.inf for v in sweep):
                raise ValueError(f"{name} values must be positive and finite")
            if len(set(sweep)) < len(sweep):
                raise ValueError(f"sweep {name} = {sweep} repeats a value: a band would compare it with itself")
            object.__setattr__(self, name, sweep)
        if self.n < 2 or self.m < 1:
            raise ValueError("need n >= 2 and m >= 1")
        if self.ks_samples < 1:
            raise ValueError("ks_samples must be >= 1")
        if self.kind == "covariance-audit" and self.n % 4 != 0:
            raise ValueError(f"covariance audit needs n divisible by 4, got n = {self.n}")
        if self.kind == "covariance-audit" and not abs(self.theta0) <= _AUDIT_THETA_MAX:
            raise ValueError(
                f"covariance audit needs |theta0| <= {_AUDIT_THETA_MAX:.4g}, got theta0 = {self.theta0}: "
                "the noise response and its squared products would overflow"
            )
        if self.kind == "limit-dist" and self.replications > _INDEPENDENT_STREAM_BASE:
            raise ValueError(
                f"limit-dist needs replications <= {_INDEPENDENT_STREAM_BASE}, got "
                f"{self.replications}: more would reuse the streams of the KS sample"
            )
        hermite_exponent(self.q, self.H)  # validates q and H
        for steps, t_max in self.grids():  # generator checked and sized before any run allocates
            _driver(self.generator, self.q, self.H, steps, self.m, t_max)
        est_cfg = self.estimator_config()  # validates the window
        if self.kind in ("consistency", "limit-dist"):  # a window that overflows on every path
            _check_skeleton(self.n, 1.0, self.x0, 0.0, est_cfg)
        # an estimand outside the window pins every theta_hat at its edge
        if self.kind == "consistency":  # the widest delta is the one that can leave it
            skeleton_separation(max(self.delta), self.theta0, self.x0, est_cfg)
        elif self.kind == "limit-dist":
            if not self.theta_lo < self.theta0 < self.theta_hi:
                raise ValueError(f"theta0 = {self.theta0} must lie inside ({self.theta_lo}, {self.theta_hi})")
            if self.refine_tol / min(self.eps) > 1e-4:
                raise ValueError(
                    f"eps = {min(self.eps):g} is below the minimiser's resolution: limit-dist needs "
                    f"refine_tol / eps <= 1e-4, and refine_tol = {self.refine_tol:g}"
                )
            # the tangent fit divides by its weights on the grid's times: below the
            # normal doubles a ratio overflows
            times = np.arange(self.n + 1) * (1.0 / self.n)
            weight = float(np.abs(_tangent_weights(times, self.theta0, self.x0)).min())
            if weight < sys.float_info.min:
                raise ValueError(
                    f"x0 = {self.x0} is too small: the tangent-fit weight t x0 e^(theta0 t) "
                    f"falls to {weight:.3g} on the grid, below the normal doubles"
                )

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(self.theta_lo, self.theta_hi, self.coarse_points, self.refine_tol)

    def grids(self) -> list:
        """(steps, t_max) of every driving-path grid the experiment builds.

        The maximal kind has one grid per horizon T, at n steps per unit of
        time and at least 2 steps; the other kinds use n steps on [0, 1].
        """
        if self.kind != "maximal":
            return [(self.n, 1.0)]
        out = []
        for t_max in sorted(self.T):
            steps = self.n * t_max
            if not math.isfinite(steps):
                raise ValueError(f"grid size n = {self.n} with T = {t_max:g} overflows")
            out.append((max(2, int(round(steps))), t_max))
        return out


def _workers() -> int:
    """Worker threads a pool may start: HERMITE_OU_THREADS (0 = one per CPU),
    capped by the CPUs; a value that is not an integer >= 0 raises ValueError."""
    raw = os.environ.get("HERMITE_OU_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = -1  # not an integer: rejected below with the negative counts
    if workers < 0:
        raise ValueError(f"HERMITE_OU_THREADS must be an integer >= 0, got {raw!r}")
    cpus = os.cpu_count() or 1
    return min(workers or cpus, cpus)


def _map_streams(fn: Callable[[int], object], count: int) -> list:
    """fn(i) for i in range(count), on a pool of worker threads; aggregation
    is ordered by index, so the result does not depend on how many workers
    ran.  At most one worker per task and per CPU is started.  Once a task
    has raised, no task starts fn any more, and the exception of the first
    failed task in index order is raised; an interrupt of the calling
    thread also cancels every task not yet started."""
    if count == 0:
        return []
    workers = min(_workers(), count)
    failed = threading.Event()

    def task(i):
        # a task dequeued after a failure has a higher index than the failed one
        if failed.is_set():
            return None
        try:
            return fn(i)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, i) for i in range(count)]
        try:
            # one wake-up of the calling thread, not one per task: each
            # wake-up takes the GIL from the workers
            wait(futures, return_when=FIRST_EXCEPTION)
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _driver(generator: str, q: int, H: float, n: int, m: int, t_max: float) -> Callable[[RngState], GridPath]:
    """The sampler of driving paths of order q on the grid of n steps over
    [0, t_max]: a function of the RngState that draws one path, and the
    package's only way to get one (the CLI draws with _driver(...)(rng)).

    ``generator`` is one of GENERATORS; ``auto`` picks exact fBm for q = 1
    and partial sums otherwise, and ``m`` is the partial-sum refinement.
    An unknown generator, fbm with q != 1, or a grid the chosen sampler
    would reject before it allocates raises ValueError here, without
    sampling; errors about the order mention "order q".  The sampler is
    looked up in this module when a path is drawn, so bench/tracer.py's
    wrapper of it sees every draw.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; valid: {', '.join(GENERATORS)}")
    if generator == "fbm" and q != 1:
        raise ValueError(f"the fbm generator needs order q = 1, got q={q}")
    if generator == "fbm" or (generator == "auto" and q == 1):
        _check_embedding(n, 1, t_max)
        return lambda rng: simulate_fbm(H, n, t_max, rng)
    hermite_exponent(q, H)
    _unit_steps(*_check_embedding(n, m, t_max), t_max)
    return lambda rng: simulate_partial_sum(q, H, n, m, t_max, rng)


# doubles that one row array of a block may hold: rows x the row width, where a
# minimiser's row is max(n + 1, coarse_points) (its coarse-pick table and its
# row of the OU row array) and a per-path row is the path, n + 1; 512 KiB
_BLOCK_VALUES = 1 << 16


class _Sample(NamedTuple):
    """An independent sample of ``count`` driving paths on each grid of
    cfg.grids(), mapped block by block by fn(grid, drivers): one result row
    per row of the block's drivers, a (rows, n + 1) array of paths on the
    grid of the GridPath ``grid``.

    ``minimised_rows`` is the number of rows per path that fn minimises in
    lockstep with minimize_l1_rows, or 0 if fn runs no minimiser.
    """

    fn: Callable
    count: int
    first_stream: int = 0
    minimised_rows: int = 0


def _block_plan(units: list, workers: int, coarse_points: int) -> list:
    """(u, lo, hi) for each block of replications lo .. hi - 1 of unit u, a
    (steps, count, minimised_rows) sample on one grid, in the order the
    blocks are queued; each unit's blocks are contiguous and in replication
    order.

    Minimiser units (minimised_rows > 0) come first, longest grid first:
    each is split evenly into as few blocks as keep minimised_rows (hi - lo)
    rows of max(n + 1, coarse_points) doubles within _BLOCK_VALUES.  Their
    lockstep steps are array passes with a fixed cost per block, which run
    no faster two at a time, so a minimiser unit is never split finer than
    its memory needs.  The per-path units follow, longest grid first, in
    guided blocks (Polychronopoulos & Kuck 1987) of half a worker's share,
    as in factoring (Hummel, Schonberg & Flynn 1992): a block on a grid of n
    steps takes ceil(remaining / (2 workers n)) paths, where remaining is
    the steps times paths of every per-path block not yet planned, capped so
    that its paths of n + 1 doubles stay within _BLOCK_VALUES.  The blocks
    shrink to one path at the end, so the workers finish together; the half
    share keeps a first block of long paths, which cost more per step than
    short ones, from finishing last.  One path may exceed the budget.
    """
    order = sorted(range(len(units)), key=lambda u: (units[u][2] == 0, -units[u][0]))
    remaining = sum(n * count for n, count, rows in units if rows == 0)
    plan = []
    for u in order:
        n, count, rows = units[u]
        width = rows * max(n + 1, coarse_points) if rows else n + 1
        per_block = max(1, _BLOCK_VALUES // width)
        if rows:
            blocks = -(-count // per_block)
            plan += [(u, b * count // blocks, (b + 1) * count // blocks) for b in range(blocks)]
            continue
        lo = 0
        while lo < count:
            size = min(count - lo, per_block, -(-remaining // (2 * workers * n)))
            plan.append((u, lo, lo + size))
            lo += size
            remaining -= size * n
    return plan


def _map_paths(cfg: ExperimentConfig, samples: list) -> list:
    """The results of every _Sample of an experiment, one array per sample,
    from one _map_streams call with one task per block of _block_plan.

    Replication i on grid g of a sample draws its path from stream
    first_stream + g count + i, with the sampler _driver returns for grid g,
    once per call; the paths of a block are sampled one by one, in
    replication order, into the rows of one array.  A sample's array
    holds their result rows in replication order, grid by grid, so it does
    not depend on how the replications were split into blocks.
    """
    grids = cfg.grids()
    draws = [_driver(cfg.generator, cfg.q, cfg.H, n, cfg.m, t_max) for n, t_max in grids]
    units = [(s, g) for s in range(len(samples)) for g in range(len(grids))]
    plan = _block_plan(
        [(grids[g][0], samples[s].count, samples[s].minimised_rows) for s, g in units],
        _workers(),
        cfg.coarse_points,
    )

    def task(k):
        u, lo, hi = plan[k]
        s, g = units[u]
        sample, n, draw = samples[s], grids[g][0], draws[g]
        first = sample.first_stream + g * sample.count + lo
        drivers = np.empty((hi - lo, n + 1))
        for r in range(hi - lo):
            path = draw(RngState(cfg.seed, first + r))
            drivers[r] = path.values
        return sample.fn(path, drivers)

    blocks = _map_streams(task, len(plan))
    results = [[] for _ in samples]
    for k in sorted(range(len(plan)), key=plan.__getitem__):  # units are sample-major, then grid
        results[units[plan[k][0]][0]].append(blocks[k])
    return [np.concatenate(r) for r in results]


def _discounted_block(grid: GridPath, drivers: np.ndarray, theta: float) -> tuple:
    """The discounted integrals at theta of a block's drivers (one row per
    path) and e^(theta t) on their grid."""
    return discounted_integral_rows(drivers, grid.times, theta), np.exp(theta * grid.times)


def _ou_rows(integral: np.ndarray, growth: np.ndarray, eps_values, x0: float) -> np.ndarray:
    """The OU paths of a block as one C-contiguous (paths E, n + 1) array:
    row k E + e is the path of integral row k at eps_values[e], bit for bit
    its one-path solution, as exact_solution broadcasts over eps."""
    eps = np.array(eps_values, dtype=float)[:, np.newaxis]
    return exact_solution(integral[:, np.newaxis], growth, eps, x0).reshape(-1, integral.shape[1])


def _theta_hats(cfg: ExperimentConfig, grid: GridPath, integral, growth, eps_values) -> np.ndarray:
    """theta_hat of every path of a block (a row of ``integral``) at every
    eps of ``eps_values``, minimised in lockstep, as a (paths, eps) array."""
    xs = _ou_rows(integral, growth, eps_values, cfg.x0)
    results = minimize_l1_rows(xs, grid, cfg.x0, cfg.estimator_config())
    return np.array([r.theta_hat for r in results]).reshape(len(integral), len(eps_values))


def _binomial_se(hits: int, reps: int) -> float:
    # shrunk success probability keeps the column positive at p_hat in {0, 1}
    p_tilde = (hits + 1.0) / (reps + 2.0)
    return math.sqrt(p_tilde * (1.0 - p_tilde) / reps)


# below this the series term e^(-pi^2 / (8 x^2)) underflows and the tail is 1
_KOLMOGOROV_MIN = math.pi / math.sqrt(746 * 8)
_KOLMOGOROV_CUTOVER = 0.82  # theta-function series below, alternating series above


def _kolmogorov_sf(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution K = sup |Brownian bridge|.

    Below the cut-over this is one minus the theta-function form
    sqrt(2 pi) / x * sum_k e^(-(2k - 1)^2 pi^2 / (8 x^2)), above it the
    alternating series 2 sum_k (-1)^(k - 1) e^(-2 k^2 x^2); four terms of
    either suffice (Marsaglia, Tsang & Wang 2003; Simard & L'Ecuyer 2011).
    The operations and their order are those of the cephes routine behind
    scipy.special.kolmogorov, so the result is the same double.
    """
    if x <= _KOLMOGOROV_MIN:
        return 1.0
    if x <= _KOLMOGOROV_CUTOVER:
        log_u8 = -(math.pi * math.pi) / (x * x)
        w = math.sqrt(2 * math.pi) / x
        u = math.exp(log_u8 / 8)
        u8 = math.exp(log_u8)
        cdf = 1 + math.pow(u8, 3)
        cdf = 1 + u8 * u8 * cdf
        cdf = 1 + u8 * cdf
        cdf = w * u * cdf
        sf = 1 - cdf
    else:
        v = math.exp(-2 * x * x)
        v3 = math.pow(v, 3)
        sf = 1 - v3 * v3 * v
        sf = 1 - v3 * (v * v) * sf
        sf = 1 - v3 * sf
        sf = 2 * v * sf
    return min(max(sf, 0.0), 1.0)  # a NaN passes through, as in scipy


def ks_two_sample(a, b) -> tuple:
    """Two-sample Kolmogorov-Smirnov distance and asymptotic p-value.

    The p-value is the Kolmogorov tail at the distance scaled by
    sqrt(n_eff) + 0.12 + 0.11 / sqrt(n_eff), n_eff = n_a n_b / (n_a + n_b)
    (Stephens' small-sample correction).
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(n_eff) + 0.12 + 0.11 / math.sqrt(n_eff)) * stat
    return stat, _kolmogorov_sf(lam)


def _run_consistency(cfg: ExperimentConfig) -> list:
    """Empirical P(|theta_hat - theta0| > delta) against its small-noise bound.

    All eps values share the same driving paths (one stream per
    replication), which sharpens the monotonicity comparison; the reported
    m_hat and the separation value reconstruct the theoretical bound
    2 eps e^{|theta0|} m_hat / g(delta) per row, and threshold_ok records
    whether e^{-|theta0|} g(delta) / (2 eps) > m_hat held.
    """
    reps = cfg.replications
    est_cfg = cfg.estimator_config()
    eps_sorted = sorted(cfg.eps)

    def block(grid, drivers):
        integral, growth = _discounted_block(grid, drivers, cfg.theta0)
        errors = np.abs(_theta_hats(cfg, grid, integral, growth, eps_sorted) - cfg.theta0)
        return np.column_stack((running_max_abs(drivers)[:, -1], errors))

    (results,) = _map_paths(cfg, [_Sample(block, reps, minimised_rows=len(eps_sorted))])
    m_hat = float(np.mean(results[:, 0]))
    abs_errors = results[:, 1:]  # replication x eps
    rows = []
    for k, eps in enumerate(eps_sorted):
        for delta in sorted(cfg.delta):
            g_delta = skeleton_separation(delta, cfg.theta0, cfg.x0, est_cfg)
            hits = int(np.sum(abs_errors[:, k] > delta))
            p_hat = hits / reps
            threshold_ok = math.exp(-abs(cfg.theta0)) * g_delta / (2.0 * eps) > m_hat
            rows.append(
                {
                    "eps": eps,
                    "delta": delta,
                    "theta0": cfg.theta0,
                    "q": cfg.q,
                    "H": cfg.H,
                    "n": cfg.n,
                    "reps": reps,
                    "p_hat": p_hat,
                    "se": _binomial_se(hits, reps),
                    "bound_coeff": p_hat / eps,
                    "g_delta": g_delta,
                    "m_hat": m_hat,
                    "threshold_ok": int(threshold_ok),
                }
            )
    return rows


def _run_limit_dist(cfg: ExperimentConfig) -> list:
    """Paired small-noise limit check: one driving path feeds both the
    rescaled estimation error u_eps = (theta_hat - theta0) / eps and the
    tangent-fit coefficient, and their gap is reported per eps alongside a
    KS comparison against an independently simulated coefficient sample.
    """
    reps = cfg.replications
    eps_sorted = sorted(cfg.eps)

    def zeta_rows(grid, integral, growth):
        ys = noise_response(integral, growth)
        return tangent_l1_coefficient(ys, grid, cfg.theta0, cfg.x0)

    def paired(grid, drivers):
        # u and zeta of replication i both come from row i of one integral block
        integral, growth = _discounted_block(grid, drivers, cfg.theta0)
        u = (_theta_hats(cfg, grid, integral, growth, eps_sorted) - cfg.theta0) / eps_sorted
        return np.column_stack((zeta_rows(grid, integral, growth), u))

    def independent_zetas(grid, drivers):
        return zeta_rows(grid, *_discounted_block(grid, drivers, cfg.theta0))

    paired_results, zeta_indep = _map_paths(cfg, [
        _Sample(paired, reps, minimised_rows=len(cfg.eps)),
        _Sample(independent_zetas, cfg.ks_samples, _INDEPENDENT_STREAM_BASE),
    ])
    zetas, us = paired_results[:, 0], paired_results[:, 1:]  # us: replication x eps

    rows = []
    for k, eps in enumerate(eps_sorted):
        u = us[:, k]
        gaps = np.abs(u - zetas)
        stat, p_value = ks_two_sample(u, zeta_indep)
        rows.append(
            {
                "eps": eps,
                "theta0": cfg.theta0,
                "q": cfg.q,
                "H": cfg.H,
                "n": cfg.n,
                "reps": reps,
                "med_abs_gap": _median(gaps),
                "q90_abs_gap": _quantile(gaps, 0.9),
                "ks_stat": stat,
                "ks_p": p_value,
            }
        )
    return rows


# np.median's NaN check and np.quantile's np.unique import numpy.ma, which no
# command needs otherwise: these two are their sorted-array forms, bit for bit
# on nonempty arrays of finite values with no -0.0, as the limit-dist gaps are


def _median(values: np.ndarray) -> float:
    """np.median: the middle sorted value, or the mean of the two."""
    s = np.sort(values)
    k = s.size // 2
    return float(s[k] if s.size % 2 else (s[k - 1] + s[k]) / 2)


def _quantile(values: np.ndarray, q: float) -> float:
    """np.quantile's default (linear) method at q in [0, 1]: between the
    sorted values k = floor(v) and k + 1, v = (size - 1) q, with its
    interpolation from the nearer end."""
    s = np.sort(values)
    v = (s.size - 1) * q
    k = math.floor(v)
    if k >= s.size - 1:
        return float(s[-1])
    a, b, t = float(s[k]), float(s[k + 1]), v - k
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _check_moment_range(sups: np.ndarray, p: float, t_max: float, h: float) -> None:
    """Raise ValueError naming p where the p-th moments of the running
    maxima, the sum of their squares (for se), T^(pH) or the ratio of the
    two would leave the range of normal doubles."""
    top = float(sups.max())
    log_moment = p * math.log(top) if top > 0 else -math.inf
    log_scale = p * h * math.log(t_max)
    logs = (math.log(sups.size) + 2 * abs(log_moment), abs(log_scale), log_moment - log_scale)
    if max(logs) > _LOG_MAX:
        raise ValueError(
            f"p = {p:g} is too large: at T = {t_max:g}, with max sup |Z| = {top:.6g}, the "
            f"moments, their squares or T^(pH) leave the double range"
        )


def _run_maximal(cfg: ExperimentConfig) -> list:
    """Moments of the running maximum across horizons with n proportional to T.

    Grids for different T are generated independently (fresh streams), never
    by rescaling one path; ratio_to_TpH estimates the scaling constant
    E[(sup |Z|)^p] / T^(pH), which self-similarity makes T-free.
    """
    (all_sups,) = _map_paths(
        cfg, [_Sample(lambda grid, drivers: running_max_abs(drivers)[:, -1], cfg.replications)]
    )
    rows = []
    for (n_t, t_max), sups in zip(cfg.grids(), np.reshape(all_sups, (-1, cfg.replications))):
        for p in sorted(cfg.p):
            _check_moment_range(sups, p, t_max, cfg.H)
            moments = sups**p
            rows.append(
                {
                    "T": t_max,
                    "p": p,
                    "q": cfg.q,
                    "H": cfg.H,
                    "n": n_t,
                    "reps": cfg.replications,
                    "moment_hat": float(moments.mean()),
                    "se": float(moments.std(ddof=1) / math.sqrt(cfg.replications)),
                    "ratio_to_TpH": float(moments.mean() / t_max ** (p * cfg.H)),
                }
            )
    return rows


def _cov_rows(samples, target, label_pairs) -> list:
    """Mean product of columns i and j of ``samples`` (one row per path) for
    every ((i, s), (j, t)) of ``label_pairs``, against target(s, t)."""
    rows = []
    for (i, s), (j, t) in label_pairs:
        prods = samples[:, i] * samples[:, j]
        exact = target(s, t)
        se = float(prods.std(ddof=1) / math.sqrt(prods.size))
        est = float(prods.mean())
        rows.append(
            {
                "s": s,
                "t": t,
                "target": exact,
                "estimate": est,
                "se": se,
                "z_score": (est - exact) / se if se > 0 else 0.0,
            }
        )
    return rows


def _run_covariance_audit(cfg: ExperimentConfig) -> list:
    """Empirical covariances on {0.25, 0.5, 0.75, 1}^2 of the driving path Z
    and of its noise response Y at theta0, each against its exact target.

    The path block's target is the fBm covariance.  Y_s on the grid is the
    left-endpoint sum of f_s(t_i) = e^(theta0 (s - t_i)) 1{t_i < s} against
    the increments of Z, so its target is covariance_functional(f_s, f_t),
    exact for an fBm driver.  Rows are ordered path block first, each block
    sorted by (s, t) with s <= t.
    """
    grid_pts = (0.25, 0.5, 0.75, 1.0)
    idx = [cfg.n // 4, cfg.n // 2, 3 * cfg.n // 4, cfg.n]

    def block(grid, drivers):
        ys = noise_response(*_discounted_block(grid, drivers, cfg.theta0))
        return np.column_stack((drivers[:, idx], ys[:, idx]))

    (results,) = _map_paths(cfg, [_Sample(block, cfg.replications)])
    path_vals, response_vals = results[:, : len(idx)], results[:, len(idx) :]
    pairs = [
        ((i, s), (j, t))
        for i, s in enumerate(grid_pts)
        for j, t in enumerate(grid_pts)
        if s <= t
    ]
    h = cfg.H
    times = np.arange(cfg.n + 1) / cfg.n
    f = {s: np.exp(cfg.theta0 * (s - times)) * (times < s) for s in grid_pts}
    return _cov_rows(
        path_vals, lambda s, t: 0.5 * (s ** (2 * h) + t ** (2 * h) - abs(t - s) ** (2 * h)), pairs
    ) + _cov_rows(response_vals, lambda s, t: covariance_functional(f[s], f[t], h), pairs)


_RUNNERS = {
    "consistency": _run_consistency,
    "limit-dist": _run_limit_dist,
    "maximal": _run_maximal,
    "covariance-audit": _run_covariance_audit,
}


def run_experiment(cfg: ExperimentConfig) -> list:
    """The result rows of the experiment that cfg describes; the package's
    one way to run one, so every run has passed the checks of its kind."""
    return _RUNNERS[cfg.kind](cfg)


def write_rows_csv(rows: list, kind: str, fh) -> None:
    """Schema-exact CSV: header row, comma separators, 17 significant digits."""
    columns = SCHEMAS[kind]
    _write_csv(fh, columns, ([row[c] for c in columns] for row in rows))


_ONE_VALUE = "one {} value, nothing to compare"


def band_summaries(cfg: ExperimentConfig, rows: list) -> list:
    """(band name, passed, detail) per acceptance band of the rows that
    run_experiment(cfg) returned.

    A band that compares rows across a sweep is not checked when the sweep
    has one value, nor the consistency bound when no row passed its
    threshold check: its ``passed`` is None and ``detail`` says why.  The
    covariance audit grants non-Gaussian (q >= 2) partial-sum drivers a
    0.02 absolute bias allowance on top of 3 SE.
    """
    kind = cfg.kind
    out = []
    if kind == "maximal":
        for p in sorted({r["p"] for r in rows}):
            ratios = np.array([r["ratio_to_TpH"] for r in rows if r["p"] == p])
            if ratios.size < 2:
                out.append((f"scaling-ratio-spread(p={p:g})", None, _ONE_VALUE.format("T")))
                continue
            spread = (ratios.max() - ratios.min()) / ratios.mean() if ratios.mean() else math.inf
            out.append((f"scaling-ratio-spread(p={p:g})", bool(spread < 0.10), f"spread={spread:.4f} (<0.10)"))
    elif kind == "consistency":
        for delta in sorted({r["delta"] for r in rows}):
            sub = sorted((r for r in rows if r["delta"] == delta), key=lambda r: r["eps"])
            if len(sub) < 2:
                out.append((f"p-monotone-in-eps(delta={delta:g})", None, _ONE_VALUE.format("eps")))
            else:
                monotone = all(
                    a["p_hat"] <= b["p_hat"] + 2 * math.hypot(a["se"], b["se"])
                    for a, b in zip(sub, sub[1:])
                )
                out.append((f"p-monotone-in-eps(delta={delta:g})", monotone, f"{len(sub)} eps values"))
            bound_ok, checked = True, 0
            for r in sub:
                if r["threshold_ok"]:
                    checked += 1
                    bound = 2 * r["eps"] * math.exp(abs(r["theta0"])) * r["m_hat"] / r["g_delta"]
                    bound_ok &= r["p_hat"] <= min(1.0, bound + 3 * r["se"])
            detail = f"{checked} rows passed the threshold check"
            out.append((f"p-below-bound(delta={delta:g})", bound_ok if checked else None, detail))
    elif kind == "limit-dist":
        sub = sorted(rows, key=lambda r: r["eps"])
        if len(sub) < 2:
            out.append(("paired-gap-decreasing-in-eps", None, _ONE_VALUE.format("eps")))
        else:
            decreasing = all(a["med_abs_gap"] < b["med_abs_gap"] for a, b in zip(sub, sub[1:]))
            out.append(("paired-gap-decreasing-in-eps", decreasing,
                        "medians " + ", ".join(f"{r['med_abs_gap']:.4g}@{r['eps']:g}" for r in sub)))
        ks_ok = all(r["ks_p"] > 0.01 for r in rows)
        out.append(("ks-not-rejected(level 0.01)", ks_ok,
                    "p-values " + ", ".join(f"{r['ks_p']:.3g}" for r in sub)))
    elif kind == "covariance-audit":
        worst = 0.0
        ok = True
        for r in rows:
            allowance = 3 * r["se"] + (0.02 if cfg.q >= 2 else 0.0)
            dev = abs(r["estimate"] - r["target"])
            ok &= dev <= allowance
            if r["se"] > 0:
                worst = max(worst, dev / r["se"])
        out.append(("covariance-within-3se", ok, f"max |dev|/se = {worst:.3f}"))
    return out
