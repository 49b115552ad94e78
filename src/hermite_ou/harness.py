"""Monte Carlo experiments: consistency, limit distribution, running-maximum
scaling and covariance audits, with deterministic CSV reports.

Every driving path comes from ``_map_paths``, the one map from replication to
RNG stream: replication i < R on grid g of ``ExperimentConfig.grids()`` (one
per horizon T for the maximal kind, one otherwise) draws its path from stream
(seed, g R + i); the limit-dist KS sample continues from stream 10^6.  So a
configuration, seed included, determines every output byte.  A task is a
block of contiguous replications on one grid (``_block_plan``): its paths are
sampled one by one, and the OU solves, noise responses, tangent fits and L1
minimisations of the whole block run as row passes in which every row is bit
for bit the one-path result, so the split into blocks never changes an output.
Tasks always run on a pool of worker threads, never on the calling thread: on
the main thread glibc trims its heap after each large temporary is freed, so
every FFT and array pass of the next path faults its pages in again.  The pool
size is capped by the HERMITE_OU_THREADS environment variable (unset/1 = one
worker, so one task at a time; 0 = auto) and by the task and CPU counts;
results are aggregated by task index, so the degree of concurrency never
changes the output either.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

# minimize_l1, tangent_l1_coefficient, noise_response and exact_solution are
# the one-path forms of the row functions called here: bench/tracer.py wraps
# them under these names
from .estimator import (  # noqa: F401
    _LOG_MAX,
    EstimatorConfig,
    minimize_l1,
    minimize_l1_rows,
    skeleton_separation,
    tangent_l1_coefficient,
    tangent_l1_coefficient_rows,
)
from .hermite import (
    GridPath,
    HermiteSpec,
    _check_embedding,
    _unit_steps,
    running_max_abs,
    simulate_fbm,
    simulate_partial_sum,
)
from .integrals import (  # noqa: F401
    discounted_integral_rows,
    noise_response,
    noise_response_rows,
    wiener_integral,
)
from .ou import exact_solution, exact_solution_rows  # noqa: F401
from .rng import RngState, make_rng

__all__ = [
    "ExperimentConfig",
    "SCHEMAS",
    "KINDS",
    "run_consistency",
    "run_limit_dist",
    "run_maximal",
    "run_covariance_audit",
    "run_experiment",
    "simulate_driver",
    "ks_two_sample",
    "write_rows_csv",
    "band_summaries",
]

KINDS = ("consistency", "limit-dist", "maximal", "covariance-audit")

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

GENERATORS = ("auto", "fbm", "partial-sum")

# stream offset separating the independent comparison sample from the
# paired replications in the limit-distribution experiment
_INDEPENDENT_STREAM_BASE = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo experiment needs, seed included."""

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
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        for name in ("theta0", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.x0 == 0:
            raise ValueError("x0 must be nonzero: every skeleton x0 e^(theta t) is then the same curve")
        for name in ("eps", "delta", "T", "p"):
            sweep = tuple(float(v) for v in getattr(self, name))
            if len(sweep) == 0:
                raise ValueError(f"sweep {name} must be nonempty")
            if not all(0 < v < math.inf for v in sweep):
                raise ValueError(f"{name} values must be positive and finite")
            object.__setattr__(self, name, sweep)
        if self.n < 2 or self.m < 1:
            raise ValueError("need n >= 2 and m >= 1")
        if self.ks_samples < 1:
            raise ValueError("ks_samples must be >= 1")
        if self.kind == "covariance-audit" and self.n % 4 != 0:
            raise ValueError(f"covariance audit needs n divisible by 4, got n = {self.n}")
        if self.kind == "limit-dist" and self.replications > _INDEPENDENT_STREAM_BASE:
            raise ValueError(
                f"limit-dist needs replications <= {_INDEPENDENT_STREAM_BASE}, got "
                f"{self.replications}: more would reuse the streams of the KS sample"
            )
        HermiteSpec(self.q, self.H)  # validates q and H
        for steps, t_max in self.grids():  # generator checked and sized before any run allocates
            _check_driver_size(self.generator, self.q, steps, self.m, t_max)
        self.estimator_config()  # validates the window

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


def _worker_count() -> int:
    raw = os.environ.get("HERMITE_OU_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"HERMITE_OU_THREADS must be an integer, got {raw!r}") from exc
    if workers == 0:
        return os.cpu_count() or 1
    return max(1, workers)


def _workers() -> int:
    """Worker threads a pool may start: HERMITE_OU_THREADS, capped by the CPUs."""
    return min(_worker_count(), os.cpu_count() or 1)


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


def simulate_driver(
    generator: str, q: int, H: float, n: int, m: int, t_max: float, rng: RngState
) -> GridPath:
    """Driving path of order q on the grid of n steps over [0, t_max].

    ``generator`` is one of GENERATORS; ``auto`` picks exact fBm for q = 1
    and partial sums otherwise.  ``m`` is the partial-sum refinement.
    Invalid input raises ValueError; errors about the order mention
    "order q".
    """
    if _resolve_generator(generator, q) == "fbm":
        return simulate_fbm(H, n, t_max, rng)
    return simulate_partial_sum(HermiteSpec(q, H), n, m, t_max, rng)


def _resolve_generator(generator: str, q: int) -> str:
    """``auto`` is exact fBm for q = 1 and partial sums otherwise.  The one check
    of the choice: an unknown generator, or fbm with q != 1, raises ValueError."""
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; valid: {', '.join(GENERATORS)}")
    if generator == "auto":
        return "fbm" if q == 1 else "partial-sum"
    if generator == "fbm" and q != 1:
        raise ValueError(f"the fbm generator needs order q = 1, got q={q}")
    return generator


def _check_driver_size(generator: str, q: int, n: int, m: int, t_max: float) -> None:
    """The size checks the fbm or partial-sum generator makes before it
    allocates anything (ValueError), without simulating."""
    if _resolve_generator(generator, q) == "fbm":
        _check_embedding(n)
    else:
        _unit_steps(n, m, t_max)


# doubles that one row array of a block may hold: rows x max(n + 1, coarse_points)
# (the minimiser's coarse-scan table and its stacked paths); 512 KiB
_BLOCK_VALUES = 1 << 16


def _block_plan(
    steps: list, count: int, workers: int, rows_per_path: int, coarse_points: int
) -> list:
    """(g, lo, hi) for each block of replications lo .. hi - 1 on grid g,
    where grid g has steps[g] steps: the blocks of each grid in replication
    order, the grids from the longest to the shortest, so that the workers
    end on the cheapest blocks.

    Each grid gets at least min(workers, count) blocks, so that no worker
    idles, and as many more as keep the rows_per_path (hi - lo) rows of a
    block, times max(n + 1, coarse_points), within _BLOCK_VALUES; a block
    of one replication may exceed it.  The replications are split as
    evenly as possible.
    """
    plan = []
    for g, n in sorted(enumerate(steps), key=lambda grid: -grid[1]):
        per_block = max(1, _BLOCK_VALUES // (rows_per_path * max(n + 1, coarse_points)))
        blocks = max(min(workers, count), -(-count // per_block))
        plan += [(g, b * count // blocks, (b + 1) * count // blocks) for b in range(blocks)]
    return plan


def _map_paths(
    cfg: ExperimentConfig, fn: Callable, count: int, first_stream: int = 0, rows_per_path: int = 1
) -> list:
    """fn(paths) for ``count`` driving paths on each grid of cfg.grids(), one
    task per block of contiguous replications on one grid (_block_plan, with
    fn's rows_per_path rows per path), all in one _map_streams call.

    Replication i on grid g draws its path from stream
    first_stream + g count + i; each path of a block is sampled alone, in
    replication order.  fn returns one result per path of its block, and
    the results come back in replication order, grid by grid, so they do
    not depend on how the replications were split into blocks.
    """
    grids = cfg.grids()
    plan = _block_plan([n for n, _ in grids], count, _workers(), rows_per_path, cfg.coarse_points)

    def task(k):
        g, lo, hi = plan[k]
        n, t_max = grids[g]
        rngs = [make_rng(cfg.seed, first_stream + g * count + i) for i in range(lo, hi)]
        return fn([simulate_driver(cfg.generator, cfg.q, cfg.H, n, cfg.m, t_max, rng) for rng in rngs])

    results = [None] * (len(grids) * count)
    for (g, lo, hi), block in zip(plan, _map_streams(task, len(plan))):
        results[g * count + lo : g * count + hi] = block
    return results


def _discounted_block(paths: list, theta: float) -> tuple:
    """A block's grid, the discounted integrals of its driving paths at theta
    (one row per path) and e^(theta t) on the grid."""
    grid = paths[0]
    integral = discounted_integral_rows(np.stack([z.values for z in paths]), grid.times, theta)
    return grid, integral, np.exp(theta * grid.times)


def _ou_rows(paths: list, integral: np.ndarray, growth: np.ndarray, eps_values, x0: float) -> list:
    """The OU paths of a block, path by path and, per path, one per eps:
    row k of the solution at one eps belongs to paths[k]."""
    solutions = [exact_solution_rows(integral, growth, eps, x0) for eps in eps_values]
    return [
        z.with_values(x[k], f"ou-exact(eps={eps:g})")
        for k, z in enumerate(paths)
        for eps, x in zip(eps_values, solutions)
    ]


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
        if u == 0:
            cdf = math.exp(log_u8 / 8 + math.log(w))
        else:
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


def run_consistency(cfg: ExperimentConfig) -> list:
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

    def block(paths):
        _, integral, growth = _discounted_block(paths, cfg.theta0)
        xs = _ou_rows(paths, integral, growth, eps_sorted, cfg.x0)
        errors = iter([abs(r.theta_hat - cfg.theta0) for r in minimize_l1_rows(xs, cfg.x0, est_cfg)])
        return [(running_max_abs(z).values[-1], [next(errors) for _ in eps_sorted]) for z in paths]

    results = _map_paths(cfg, block, reps, rows_per_path=len(eps_sorted))
    m_hat = float(np.mean([r[0] for r in results]))
    abs_errors = np.array([r[1] for r in results])  # replication x eps
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


def run_limit_dist(cfg: ExperimentConfig) -> list:
    """Paired small-noise limit check: one driving path feeds both the
    rescaled estimation error u_eps = (theta_hat - theta0) / eps and the
    tangent-fit coefficient, and their gap is reported per eps alongside a
    KS comparison against an independently simulated coefficient sample.
    """
    reps = cfg.replications
    est_cfg = cfg.estimator_config()

    def zeta_rows(grid, integral, growth):
        ys = noise_response_rows(integral, growth)
        return tangent_l1_coefficient_rows(ys, grid, cfg.theta0, cfg.x0)

    def paired(paths):
        # u and zeta of replication i both come from row i of one integral block
        grid, integral, growth = _discounted_block(paths, cfg.theta0)
        zetas = zeta_rows(grid, integral, growth)
        xs = _ou_rows(paths, integral, growth, cfg.eps, cfg.x0)
        estimates = iter(minimize_l1_rows(xs, cfg.x0, est_cfg))
        return [
            (float(zeta), {eps: (next(estimates).theta_hat - cfg.theta0) / eps for eps in cfg.eps})
            for zeta in zetas
        ]

    paired_results = _map_paths(cfg, paired, reps, rows_per_path=len(cfg.eps))
    zetas = np.array([r[0] for r in paired_results])

    def independent_zetas(paths):
        return zeta_rows(*_discounted_block(paths, cfg.theta0)).tolist()

    zeta_indep = _map_paths(cfg, independent_zetas, cfg.ks_samples, _INDEPENDENT_STREAM_BASE)

    rows = []
    for eps in sorted(cfg.eps):
        u = np.array([r[1][eps] for r in paired_results])
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
                "med_abs_gap": float(np.median(gaps)),
                "q90_abs_gap": float(np.quantile(gaps, 0.9)),
                "ks_stat": stat,
                "ks_p": p_value,
            }
        )
    return rows


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


def run_maximal(cfg: ExperimentConfig) -> list:
    """Moments of the running maximum across horizons with n proportional to T.

    Grids for different T are generated independently (fresh streams), never
    by rescaling one path; ratio_to_TpH estimates the scaling constant
    E[(sup |Z|)^p] / T^(pH), which self-similarity makes T-free.
    """
    all_sups = _map_paths(
        cfg, lambda paths: [running_max_abs(z).values[-1] for z in paths], cfg.replications
    )
    rows = []
    for (n_t, t_max), sups in zip(cfg.grids(), np.reshape(all_sups, (-1, cfg.replications))):
        for p in sorted(cfg.p):
            _check_moment_range(sups, p, t_max, cfg.H)
            moments = sups**p
            se = (
                float(moments.std(ddof=1) / math.sqrt(cfg.replications))
                if cfg.replications > 1
                else 0.0
            )
            rows.append(
                {
                    "T": t_max,
                    "p": p,
                    "q": cfg.q,
                    "H": cfg.H,
                    "n": n_t,
                    "reps": cfg.replications,
                    "moment_hat": float(moments.mean()),
                    "se": se,
                    "ratio_to_TpH": float(moments.mean() / t_max ** (p * cfg.H)),
                }
            )
    return rows


def _cov_rows(samples, h, label_pairs) -> list:
    rows = []
    for (i, s), (j, t) in label_pairs:
        prods = samples[:, i] * samples[:, j]
        target = 0.5 * (s ** (2 * h) + t ** (2 * h) - abs(t - s) ** (2 * h))
        se = float(prods.std(ddof=1) / math.sqrt(prods.size)) if prods.size > 1 else 0.0
        est = float(prods.mean())
        rows.append(
            {
                "s": s,
                "t": t,
                "target": target,
                "estimate": est,
                "se": se,
                "z_score": (est - target) / se if se > 0 else 0.0,
            }
        )
    return rows


def run_covariance_audit(cfg: ExperimentConfig) -> list:
    """Empirical path covariance on {0.25, 0.5, 0.75, 1}^2 and the same
    targets reached through Wiener integrals of indicator integrands.

    The indicator integral of 1_[0, s) telescopes to Z_s, so the second
    block revalidates the first through the integral code path; rows are
    ordered path block first, each block sorted by (s, t) with s <= t.
    """
    grid_pts = (0.25, 0.5, 0.75, 1.0)
    idx = [cfg.n // 4, cfg.n // 2, 3 * cfg.n // 4, cfg.n]

    def one(z):
        t = z.times
        integrals = [wiener_integral((t < s).astype(float), z) for s in grid_pts]
        return z.values[idx], integrals

    results = _map_paths(cfg, lambda paths: [one(z) for z in paths], cfg.replications)
    path_vals = np.array([r[0] for r in results])
    int_vals = np.array([r[1] for r in results])
    pairs = [
        ((i, s), (j, t))
        for i, s in enumerate(grid_pts)
        for j, t in enumerate(grid_pts)
        if s <= t
    ]
    return _cov_rows(path_vals, cfg.H, pairs) + _cov_rows(int_vals, cfg.H, pairs)


_RUNNERS = {
    "consistency": run_consistency,
    "limit-dist": run_limit_dist,
    "maximal": run_maximal,
    "covariance-audit": run_covariance_audit,
}


def run_experiment(cfg: ExperimentConfig) -> list:
    return _RUNNERS[cfg.kind](cfg)


def _format_field(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return format(float(value), ".17g")


def write_rows_csv(rows: list, kind: str, fh) -> None:
    """Schema-exact CSV: header row, comma separators, 17 significant digits."""
    columns = SCHEMAS[kind]
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_format_field(row[c]) for c in columns) + "\n")


_ONE_VALUE = "one {} value, nothing to compare"


def band_summaries(kind: str, rows: list, wide_audit: bool = False) -> list:
    """(band name, passed, detail) per acceptance band of the experiment kind.

    A band that compares rows across a sweep is not checked when the sweep
    has one value: its ``passed`` is None and ``detail`` says why.
    ``wide_audit`` adds the 0.02 absolute bias allowance that the covariance
    audit grants non-Gaussian (q >= 2) partial-sum drivers.
    """
    out = []
    if kind == "maximal":
        for p in sorted({r["p"] for r in rows}):
            ratios = np.array([r["ratio_to_TpH"] for r in rows if r["p"] == p])
            if ratios.size < 2:
                out.append((f"scaling-ratio-spread(p={p:g})", None, _ONE_VALUE.format("T")))
                continue
            spread = (ratios.max() - ratios.min()) / ratios.mean() if ratios.mean() else math.inf
            out.append((f"scaling-ratio-spread(p={p:g})", spread < 0.10, f"spread={spread:.4f} (<0.10)"))
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
            out.append(
                (f"p-below-bound(delta={delta:g})", bound_ok, f"{checked} rows passed the threshold check")
            )
    elif kind == "limit-dist":
        sub = sorted(rows, key=lambda r: r["eps"])
        if len(sub) < 2:
            out.append(("paired-gap-decreasing-in-eps", None, _ONE_VALUE.format("eps")))
        else:
            decreasing = all(a["med_abs_gap"] <= b["med_abs_gap"] for a, b in zip(sub, sub[1:]))
            out.append(("paired-gap-decreasing-in-eps", decreasing,
                        "medians " + ", ".join(f"{r['med_abs_gap']:.4g}@{r['eps']:g}" for r in sub)))
        ks_ok = all(r["ks_p"] > 0.01 for r in rows)
        out.append(("ks-not-rejected(level 0.01)", ks_ok,
                    "p-values " + ", ".join(f"{r['ks_p']:.3g}" for r in sub)))
    elif kind == "covariance-audit":
        worst = 0.0
        ok = True
        for r in rows:
            allowance = 3 * r["se"] + (0.02 if wide_audit else 0.0)
            dev = abs(r["estimate"] - r["target"])
            ok &= dev <= allowance
            if r["se"] > 0:
                worst = max(worst, dev / r["se"])
        out.append(("covariance-within-3se", ok, f"max |dev|/se = {worst:.3f}"))
    return out
