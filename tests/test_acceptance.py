"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at desk scale with fixed seeds, so every run is
deterministic; tolerances are 3-standard-error bands (2 SE for the
monotonicity comparison) plus explicitly stated bias allowances.

Criteria 5-8 are the experiments of the CLAIMS table: each passes when every
band that ``band_summaries`` gives for its rows, the bands ``hermite-ou
experiment`` prints, reads PASS (a SKIP fails it).  Two clauses are not bands
yet and stay in their criterion: criterion 6's capped bound on every row, and
the median-gap levels of criteria 7 and 8.
"""

import math

import numpy as np
import pytest

from hermite_ou import RngState, harness
from hermite_ou.cli import main as cli_main
from hermite_ou.estimator import EstimatorConfig, minimize_l1, tangent_l1_coefficient
from hermite_ou.harness import ExperimentConfig, band_summaries, run_experiment
from hermite_ou.hermite import GridPath, Provenance, simulate_fbm
from hermite_ou.integrals import covariance_functional, discounted_integral_rows, noise_response
from hermite_ou.ou import deterministic_solution, exact_solution

SEED = 20250810  # matches the shared fixtures in conftest.py
GRID_PTS = (0.25, 0.5, 0.75, 1.0)
Q2_BIAS_ALLOWANCE = 0.02

# criteria 5-8: criterion number -> the experiment whose every band is the claim
CLAIMS = {
    5: ExperimentConfig(kind="maximal", q=1, H=0.7, n=512, T=(1.0, 2.0, 4.0), p=(1.0,),
                        replications=2000, seed=SEED + 2),
    6: ExperimentConfig(kind="consistency", theta0=1.0, x0=1.0, q=1, H=0.7, n=512,
                        eps=(0.5, 0.2, 0.1, 0.05), delta=(0.5,), replications=400, seed=SEED + 3),
    **{6 + q: ExperimentConfig(kind="limit-dist", theta0=1.0, x0=1.0, q=q, H=0.7, n=512, m=32,
                               eps=(1e-2, 1e-3), replications=200, ks_samples=500, seed=SEED + 4 + q)
       for q in (1, 2)},
}
MEDIAN_LEVELS = {7: 0.05, 8: 0.10}  # median gap at eps = 1e-3, not a band yet


def report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def run_claim(num: int):
    """Rows of criterion num's experiment, whether every band passed (a
    SKIP does not) and the bands as the CLI prints them."""
    rows = run_experiment(CLAIMS[num])
    bands = band_summaries(CLAIMS[num], rows)
    text = "; ".join(f"band {name}: {'SKIP' if passed is None else 'PASS' if passed else 'FAIL'} "
                     f"({detail})" for name, passed, detail in bands)
    return rows, all(passed is True for _, passed, _ in bands), text


def fbm_cov(s, t, h):
    return 0.5 * (s ** (2 * h) + t ** (2 * h) - abs(t - s) ** (2 * h))


def three_se(products):
    return 3 * products.std(ddof=1) / math.sqrt(products.size)


@pytest.mark.parametrize("q,h", [(1, 0.6), (1, 0.7), (2, 0.7)])
def test_criterion_1_unit_variance(grid_samples, q, h):
    z1 = grid_samples(q, h)[:, 3]
    band = three_se(z1**2) + (Q2_BIAS_ALLOWANCE if q >= 2 else 0.0)
    dev = abs(np.mean(z1**2) - 1.0)
    report(
        1,
        f"Var(Z_1)=1 for q={q}, H={h}",
        dev < band,
        f"|{np.mean(z1**2):.4f} - 1| = {dev:.4f} < {band:.4f} (4000 paths, n=512, m=32)",
    )


@pytest.mark.parametrize("q,h", [(1, 0.6), (1, 0.7), (2, 0.7)])
def test_criterion_2_covariance_grid(grid_samples, q, h):
    vals = grid_samples(q, h)
    allowance = Q2_BIAS_ALLOWANCE if q >= 2 else 0.0
    worst_ratio, ok = 0.0, True
    for i, s in enumerate(GRID_PTS):
        for j, t in enumerate(GRID_PTS):
            if t < s:
                continue
            prods = vals[:, i] * vals[:, j]
            dev = abs(prods.mean() - fbm_cov(s, t, h))
            band = three_se(prods) + allowance
            ok &= dev < band
            worst_ratio = max(worst_ratio, dev / band)
    report(
        2,
        f"covariance grid for q={q}, H={h}",
        ok,
        f"max |dev|/band = {worst_ratio:.3f} over {{0.25,0.5,0.75,1}}^2 (same runs as criterion 1)",
    )


def test_criterion_3_wiener_integral_covariance(fbm07_paths):
    t = np.arange(513) / 512
    f = np.exp(-t)
    prods = np.array([np.dot(f[:-1], np.diff(p)) * p[-1] for p in fbm07_paths])
    fine_t = np.arange(4097) / 4096
    target = covariance_functional(np.exp(-fine_t), np.ones(4097), 0.7)
    finer_t = np.arange(8193) / 8192
    target_2x = covariance_functional(np.exp(-finer_t), np.ones(8193), 0.7)
    quad_drift = abs(target - target_2x)
    dev = abs(prods.mean() - target)
    band = three_se(prods)
    report(
        3,
        "Wiener-integral covariance, f=exp(-u), g=1",
        dev < band and quad_drift < 1e-4,
        f"MC dev {dev:.5f} < {band:.5f} (4000 paths); quadrature doubling drift "
        f"{quad_drift:.2e} < 1e-4",
    )


def test_criterion_4_gronwall_bound(fbm07_paths):
    eps, violations = 0.1, 0
    worst = 0.0
    for theta0 in (-1.0, 1.0):
        cap = 1.01 * eps * math.exp(abs(theta0))
        for s in range(1000):
            z = GridPath(1.0, 512, fbm07_paths[s], Provenance(SEED + 1, s, "fbm(H=0.7)"))
            integral = discounted_integral_rows(z.values, z.times, theta0)
            x = exact_solution(integral, np.exp(theta0 * z.times), eps, 1.0)
            skel = deterministic_solution(theta0, 1.0, z)
            lhs = np.max(np.abs(x - skel.values))
            rhs = cap * np.max(np.abs(z.values))
            worst = max(worst, lhs / rhs)
            violations += lhs > rhs
    report(
        4,
        "pathwise growth bound",
        violations == 0,
        f"0 violations required, got {violations} over 2000 path/drift pairs "
        f"(worst lhs/rhs = {worst:.4f})",
    )


def test_criterion_5_running_max_scaling():
    _, ok, bands = run_claim(5)
    report(5, "running-max moment scales like T^H", ok,
           f"{bands} across T in {{1,2,4}} (2000 reps, n=512T)")


def test_criterion_6_consistency():
    rows, ok, bands = run_claim(6)
    capped_ok = True  # not a band: p-below-bound checks only the rows past the threshold
    for r in rows:
        bound = 2 * r["eps"] * math.exp(abs(r["theta0"])) * r["m_hat"] / r["g_delta"]
        capped_ok &= r["p_hat"] <= min(1.0, bound + 3 * r["se"])
    p_by_eps = {r["eps"]: r["p_hat"] for r in rows}
    report(6, "estimation-error probability shrinks linearly in eps", ok and capped_ok,
           f"p_hat by eps = {p_by_eps}; {bands}; capped bound held on every row: {capped_ok}")


def limit_claim(num: int):
    """Criterion 7's or 8's verdict and detail: every band, and the median
    gap at eps = 1e-3 below the criterion's level."""
    rows, ok, bands = run_claim(num)
    med = rows[0]["med_abs_gap"]  # ascending eps: rows[0] is eps = 1e-3
    return ok and med < MEDIAN_LEVELS[num], (
        f"median |u_eps - zeta| = {med:.4f} (<{MEDIAN_LEVELS[num]}) at eps=1e-3; {bands}; "
        f"KS against {CLAIMS[num].ks_samples} independent draws")


def test_criterion_7_limit_distribution_fbm():
    report(7, "paired small-noise limit, q=1", *limit_claim(7))


def test_criterion_8_limit_distribution_rosenblatt():
    report(8, "paired small-noise limit, q=2", *limit_claim(8))


# wrong zetas: the tangent fit with a wrong x0 or theta0, or zeta scaled
MUTANTS = {
    "x0*1.05": lambda ys, grid, theta0, x0: tangent_l1_coefficient(ys, grid, theta0, x0 * 1.05),
    "theta0+0.1": lambda ys, grid, theta0, x0: tangent_l1_coefficient(ys, grid, theta0 + 0.1, x0),
    "zeta*1.02": lambda *args: tangent_l1_coefficient(*args) * 1.02,
    "zeta*1.1": lambda *args: tangent_l1_coefficient(*args) * 1.1,
}
MISSED = pytest.mark.xfail(
    strict=True,
    reason="the median level and the decrease and KS bands all pass this wrong zeta; "
    "a paired-gap rate band and a Levy-Prokhorov band must catch it (ROADMAP items 11 and 14)",
)


@pytest.mark.parametrize(
    "num, mutation",
    [
        pytest.param(
            num, name, id=f"criterion-{num}-{name}",
            marks=MISSED if (num, name) in {(7, "x0*1.05"), (8, "x0*1.05"), (8, "theta0+0.1")} else (),
        )
        for num in (7, 8)
        for name in ("none", *MUTANTS)
    ],
)
def test_limit_criteria_fail_for_a_wrong_zeta(monkeypatch, num, mutation):
    if mutation != "none":
        monkeypatch.setattr(harness, "tangent_l1_coefficient", MUTANTS[mutation])
    ok, detail = limit_claim(num)
    assert ok == (mutation == "none"), detail


def test_criterion_9_oracle_equivalences():
    theta0, x0 = 1.0, 1.0
    cfg = EstimatorConfig(-2.0, 2.0)

    # tangent-fit coefficient vs dense-grid argmin of its objective
    zeta_ok, zeta_worst = True, 0.0
    for s in range(100):
        z = simulate_fbm(0.7, 128, 1.0, RngState(SEED + 7, s))
        y = noise_response(discounted_integral_rows(z.values, z.times, theta0), np.exp(theta0 * z.times))
        t = z.times[1 : z.n]
        w = t * x0 * np.exp(theta0 * t)
        yv = y[1 : z.n]
        ratios = yv / w
        grid = np.linspace(ratios.min(), ratios.max(), 10**5)
        step = grid[1] - grid[0]
        obj = np.empty(grid.size)
        for lo in range(0, grid.size, 8192):
            chunk = grid[lo : lo + 8192]
            obj[lo : lo + chunk.size] = np.abs(
                yv[None, :] - chunk[:, None] * w[None, :]
            ).sum(axis=1)
        gap = abs(tangent_l1_coefficient(y, z, theta0, x0) - grid[int(np.argmin(obj))])
        zeta_ok &= gap <= step + 1e-12
        zeta_worst = max(zeta_worst, gap / step if step else 0.0)

    # minimizer vs dense-grid argmin of the L1 objective
    grid = np.linspace(cfg.theta_lo, cfg.theta_hi, 10**5)
    spacing = grid[1] - grid[0]
    tol = 10 * cfg.refine_tol + spacing
    min_ok, min_worst = True, 0.0
    for s in range(20):
        z = simulate_fbm(0.7, 256, 1.0, RngState(SEED + 8, s))
        integral = discounted_integral_rows(z.values, z.times, theta0)
        x = z.with_values(exact_solution(integral, np.exp(theta0 * z.times), 0.05, x0), "ou")
        res = minimize_l1(x, x0, cfg)
        tgrid = x.times
        weights = np.full(tgrid.size, x.dt)
        weights[0] = weights[-1] = x.dt / 2
        vals = np.empty(grid.size)
        for lo in range(0, grid.size, 2048):
            chunk = grid[lo : lo + 2048]
            dev = np.abs(x.values[None, :] - x0 * np.exp(np.outer(chunk, tgrid)))
            vals[lo : lo + chunk.size] = dev @ weights
        gap = abs(res.theta_hat - grid[int(np.argmin(vals))])
        min_ok &= gap < tol
        min_worst = max(min_worst, gap / tol)
    report(
        9,
        "solvers match brute-force grid minimizers",
        zeta_ok and min_ok,
        f"tangent fit within one grid step on 100 paths (worst {zeta_worst:.2f} steps); "
        f"L1 minimizer within 10*tol+spacing on 20 paths (worst {min_worst:.2f} of budget)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    skel = tmp_path / "skel.csv"
    cli_main([
        "simulate", "--process", "ou", "--theta", "0.5", "--eps", "0.1", "--x0", "1",
        "--n", "128", "--seed", "4", "--out", str(skel),
    ])
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "kind = maximal\nq = 1\nH = 0.7\nn = 64\nT = 1,2\np = 1\nreplications = 25\nseed = 5\n"
    )
    invocations = {
        "simulate-hermite": lambda out: cli_main(
            ["simulate", "--process", "hermite", "--q", "2", "--H", "0.7", "--n", "64",
             "--m", "8", "--seed", "1", "--out", str(out / "z.csv")]
        ),
        "simulate-ou": lambda out: cli_main(
            ["simulate", "--process", "ou", "--theta", "1", "--eps", "0.1", "--x0", "1",
             "--n", "64", "--seed", "2", "--out", str(out / "x.csv")]
        ),
        "estimate": lambda out: cli_main(
            ["estimate", "--input", str(skel), "--x0", "1", "--out", str(out / "est.csv")]
        ),
        "experiment": lambda out: cli_main(
            ["experiment", "--config", str(cfg), "--out-dir", str(out / "exp")]
        ),
    }
    ok, details = True, []
    for name, invoke in invocations.items():
        dirs = []
        for rep in ("first", "second"):
            out = tmp_path / f"{name}-{rep}"
            out.mkdir()
            (out / "exp").mkdir()
            assert invoke(out) == 0
            dirs.append(out)
        files_a = sorted(p for p in dirs[0].rglob("*") if p.is_file())
        files_b = sorted(p for p in dirs[1].rglob("*") if p.is_file())
        same = [a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b)]
        ok &= bool(files_a) and all(same)
        details.append(f"{name}: {'identical' if all(same) else 'DIFFERS'}")
    report(10, "CLI outputs are byte-identical on repeat", ok, "; ".join(details))
