"""Monte Carlo experiments: consistency, limit distribution, running-maximum
scaling and covariance audits, with deterministic CSV reports.

Replications are keyed by (seed, stream), one stream per replication, so a
configuration (including its seed) determines every output byte.  Worker
concurrency is capped by the HERMITE_OU_THREADS environment variable
(unset/1 = sequential, 0 = auto) and by the task and CPU counts; results
are aggregated by replication index, so the degree of concurrency never
changes the output.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import kolmogorov

from .estimator import EstimatorConfig, minimize_l1, skeleton_separation, tangent_l1_coefficient
from .hermite import (
    GridPath,
    HermiteSpec,
    running_max_abs,
    simulate_fbm,
    simulate_kernel,
    simulate_partial_sum,
)
from .integrals import noise_response, wiener_integral
from .ou import OuSpec, exact_solution
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

GENERATORS = ("auto", "fbm", "partial-sum", "kernel")
# experiments leave out the kernel reference generator: at experiment grid
# sizes its q = 2 weight matrices take gigabytes
_EXPERIMENT_GENERATORS = tuple(g for g in GENERATORS if g != "kernel")

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
        if self.generator not in _EXPERIMENT_GENERATORS:
            raise ValueError(
                f"unknown generator {self.generator!r}; valid: {', '.join(_EXPERIMENT_GENERATORS)}"
            )
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        for name in ("eps", "delta", "T", "p"):
            sweep = tuple(float(v) for v in getattr(self, name))
            if len(sweep) == 0:
                raise ValueError(f"sweep {name} must be nonempty")
            if any(v <= 0 for v in sweep):
                raise ValueError(f"{name} values must be positive")
            object.__setattr__(self, name, sweep)
        if self.n < 2 or self.m < 1:
            raise ValueError("need n >= 2 and m >= 1")
        if self.ks_samples < 1:
            raise ValueError("ks_samples must be >= 1")
        HermiteSpec(self.q, self.H)  # validates q and H
        self.estimator_config()  # validates the window

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(self.theta_lo, self.theta_hi, self.coarse_points, self.refine_tol)


def _worker_count() -> int:
    raw = os.environ.get("HERMITE_OU_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"HERMITE_OU_THREADS must be an integer, got {raw!r}") from exc
    if workers == 0:
        return os.cpu_count() or 1
    return max(1, workers)


def _map_streams(fn: Callable[[int], object], count: int) -> list:
    """fn(i) for i in range(count); aggregation is ordered by index, so the
    result does not depend on how many workers ran.  At most one worker per
    task and per CPU is started."""
    workers = min(_worker_count(), count, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def simulate_driver(
    generator: str, q: int, H: float, n: int, m: int, t_max: float, rng: RngState, trunc=None
) -> GridPath:
    """Driving path of order q on the grid of n steps over [0, t_max].

    ``generator`` is one of GENERATORS; ``auto`` picks exact fBm for q = 1
    and partial sums otherwise.  ``m`` is the partial-sum refinement and
    ``trunc`` the kernel truncation (default 10 t_max).  Invalid input
    raises ValueError; errors about the order mention "order q".
    """
    if generator == "auto":
        generator = "fbm" if q == 1 else "partial-sum"
    if generator == "fbm":
        if q != 1:
            raise ValueError(f"the fbm generator needs order q = 1, got q={q}")
        return simulate_fbm(H, n, t_max, rng)
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; valid: {', '.join(GENERATORS)}")
    spec = HermiteSpec(q, H)
    if generator == "partial-sum":
        return simulate_partial_sum(spec, n, m, t_max, rng)
    return simulate_kernel(spec, n, 10.0 * t_max if trunc is None else trunc, rng, t_max=t_max)


def _driver(cfg: ExperimentConfig, stream: int, n: int, t_max: float) -> GridPath:
    return simulate_driver(cfg.generator, cfg.q, cfg.H, n, cfg.m, t_max, make_rng(cfg.seed, stream))


def _binomial_se(hits: int, reps: int) -> float:
    # shrunk success probability keeps the column positive at p_hat in {0, 1}
    p_tilde = (hits + 1.0) / (reps + 2.0)
    return math.sqrt(p_tilde * (1.0 - p_tilde) / reps)


def ks_two_sample(a, b) -> tuple:
    """Two-sample Kolmogorov-Smirnov distance and asymptotic p-value."""
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
    return stat, float(min(1.0, max(0.0, kolmogorov(lam))))


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
    paths = _map_streams(lambda s: _driver(cfg, s, cfg.n, 1.0), reps)
    m_hat = float(np.mean([running_max_abs(z).values[-1] for z in paths]))

    def errors_for(eps: float) -> np.ndarray:
        def one(i):
            x = exact_solution(OuSpec(cfg.theta0, eps, cfg.x0), paths[i])
            return abs(minimize_l1(x, cfg.x0, est_cfg).theta_hat - cfg.theta0)

        return np.array(_map_streams(one, reps))

    abs_errors = {eps: errors_for(eps) for eps in sorted(cfg.eps)}
    rows = []
    for eps in sorted(cfg.eps):
        for delta in sorted(cfg.delta):
            g_delta = skeleton_separation(delta, cfg.theta0, cfg.x0, est_cfg)
            hits = int(np.sum(abs_errors[eps] > delta))
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

    def paired(i):
        z = _driver(cfg, i, cfg.n, 1.0)
        y = noise_response(z, cfg.theta0)
        assert (y.provenance.seed, y.provenance.stream) == (z.provenance.seed, z.provenance.stream)
        zeta = tangent_l1_coefficient(y, cfg.theta0, cfg.x0)
        u_by_eps = {}
        for eps in cfg.eps:
            x = exact_solution(OuSpec(cfg.theta0, eps, cfg.x0), z)
            assert (x.provenance.seed, x.provenance.stream) == (
                y.provenance.seed,
                y.provenance.stream,
            ), "paired comparison must reuse the same driving path"
            u_by_eps[eps] = (minimize_l1(x, cfg.x0, est_cfg).theta_hat - cfg.theta0) / eps
        return zeta, u_by_eps

    paired_results = _map_streams(paired, reps)
    zetas = np.array([r[0] for r in paired_results])

    def independent_zeta(i):
        z = _driver(cfg, _INDEPENDENT_STREAM_BASE + i, cfg.n, 1.0)
        return tangent_l1_coefficient(noise_response(z, cfg.theta0), cfg.theta0, cfg.x0)

    zeta_indep = np.array(_map_streams(independent_zeta, cfg.ks_samples))

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


def run_maximal(cfg: ExperimentConfig) -> list:
    """Moments of the running maximum across horizons with n proportional to T.

    Grids for different T are generated independently (fresh streams), never
    by rescaling one path; ratio_to_TpH estimates the scaling constant
    E[(sup |Z|)^p] / T^(pH), which self-similarity makes T-free.
    """
    rows = []
    for t_idx, t_max in enumerate(sorted(cfg.T)):
        n_t = max(2, int(round(cfg.n * t_max)))
        base = t_idx * cfg.replications

        def sup_one(i, t_max=t_max, n_t=n_t, base=base):
            z = _driver(cfg, base + i, n_t, t_max)
            return running_max_abs(z).values[-1]

        sups = np.array(_map_streams(sup_one, cfg.replications))
        for p in sorted(cfg.p):
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


def _cov_rows(samples_a, samples_b, grid, label_pairs) -> list:
    rows = []
    for (i, s), (j, t) in label_pairs:
        prods = samples_a[:, i] * samples_b[:, j]
        target = 0.5 * (s ** (2 * grid["H"]) + t ** (2 * grid["H"]) - abs(t - s) ** (2 * grid["H"]))
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
    if cfg.n % 4 != 0:
        raise ValueError("covariance audit needs n divisible by 4")
    grid_pts = (0.25, 0.5, 0.75, 1.0)
    idx = [cfg.n // 4, cfg.n // 2, 3 * cfg.n // 4, cfg.n]
    reps = cfg.replications

    def one(i):
        z = _driver(cfg, i, cfg.n, 1.0)
        t = z.times
        integrals = [wiener_integral((t < s).astype(float), z) for s in grid_pts]
        return z.values[idx], integrals

    results = _map_streams(one, reps)
    path_vals = np.array([r[0] for r in results])
    int_vals = np.array([r[1] for r in results])
    pairs = [
        ((i, s), (j, t))
        for i, s in enumerate(grid_pts)
        for j, t in enumerate(grid_pts)
        if s <= t
    ]
    grid = {"H": cfg.H}
    return _cov_rows(path_vals, path_vals, grid, pairs) + _cov_rows(int_vals, int_vals, grid, pairs)


_RUNNERS = {
    "consistency": run_consistency,
    "limit-dist": run_limit_dist,
    "maximal": run_maximal,
    "covariance-audit": run_covariance_audit,
}


def run_experiment(cfg: ExperimentConfig) -> list:
    return _RUNNERS[cfg.kind](cfg)


def _format_field(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_rows_csv(rows: list, kind: str, fh) -> None:
    """Schema-exact CSV: header row, comma separators, 17 significant digits."""
    columns = SCHEMAS[kind]
    fh.write(",".join(columns) + "\n")
    for row in rows:
        fh.write(",".join(_format_field(row[c]) for c in columns) + "\n")


def band_summaries(kind: str, rows: list, wide_audit: bool = False) -> list:
    """(band name, passed, detail) per acceptance band of the experiment kind.

    ``wide_audit`` adds the 0.02 absolute bias allowance that the covariance
    audit grants non-Gaussian (q >= 2) partial-sum drivers.
    """
    out = []
    if kind == "maximal":
        for p in sorted({r["p"] for r in rows}):
            ratios = np.array([r["ratio_to_TpH"] for r in rows if r["p"] == p])
            spread = (ratios.max() - ratios.min()) / ratios.mean() if ratios.mean() else math.inf
            out.append((f"scaling-ratio-spread(p={p:g})", spread < 0.10, f"spread={spread:.4f} (<0.10)"))
    elif kind == "consistency":
        for delta in sorted({r["delta"] for r in rows}):
            sub = sorted((r for r in rows if r["delta"] == delta), key=lambda r: r["eps"])
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
