"""Command-line front end: simulate paths, estimate drift, run experiments.

Configuration files are flat ``key = value`` text (lists comma-separated,
'#' comments); command-line overrides win over file values.  Every output
is a CSV with 17-significant-digit values, and a given flag set (seed
included) reproduces identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .estimator import EstimatorConfig, _check_normal_start, minimize_l1
from .harness import (
    GENERATORS,
    KINDS,
    SCHEMAS,
    ExperimentConfig,
    _driver,
    band_summaries,
    run_experiment,
    write_rows_csv,
)
from .hermite import read_path_csv, write_path_csv
from .integrals import discounted_integral_rows
from .ou import exact_solution
from .rng import RngState

__all__ = ["main"]


def _float_list(text: str) -> tuple:
    return tuple(float(part) for part in str(text).split(","))


# harness postpones annotations, so each field's type is its source name
_TYPE_PARSERS = {"str": str, "int": int, "float": float, "tuple": _float_list}
_FIELD_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in dataclasses.fields(ExperimentConfig)}


# _driver's checks and its sampler's errors name the parameter they reject;
# anything else is about H
_DRIVER_FLAGS = (("order q", "--q"), ("grid size n", "--n"), ("t_max", "--t-max"))
# estimator errors likewise; anything else is about the theta window
_ESTIMATE_FLAGS = (
    ("coarse_points", "--coarse-points"),
    ("refine_tol", "--refine-tol"),
    ("x0 must", "--x0"),
    ("path values", "--input/--x0"),
)


class CliError(Exception):
    """User-facing CLI failure; the message names the offending input."""


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _coerce_config(raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        if key not in _FIELD_PARSERS:
            valid = ", ".join(sorted(_FIELD_PARSERS))
            raise CliError(f"unknown config field {key!r}; valid fields: {valid}")
        try:
            out[key] = _FIELD_PARSERS[key](value)
        except ValueError as exc:
            raise CliError(f"config field {key!r}: cannot parse {value!r} ({exc})") from exc
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermite-ou",
        description="Hermite-driven OU simulation and minimum-L1 drift estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write one simulated path as CSV")
    sim.add_argument("--process", choices=("hermite", "ou"), required=True)
    sim.add_argument("--q", type=int, default=1)
    sim.add_argument("--H", type=float, default=0.7)
    sim.add_argument("--n", type=int, default=512)
    sim.add_argument("--m", type=int, default=32, help="partial-sum refinement factor")
    sim.add_argument("--t-max", type=float, default=1.0)
    sim.add_argument("--generator", choices=GENERATORS, default="auto")
    sim.add_argument("--theta", type=float, default=1.0, help="OU drift")
    sim.add_argument("--eps", type=float, default=0.1, help="OU noise scale")
    sim.add_argument("--x0", type=float, default=1.0, help="OU initial value")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--stream", type=int, default=0)
    sim.add_argument("--out", default="path.csv")

    est = sub.add_parser("estimate", help="minimum-L1 drift estimate from a path CSV")
    est.add_argument("--input", required=True)
    est.add_argument("--x0", type=float, required=True)
    est.add_argument("--theta-lo", type=float, default=-2.0)
    est.add_argument("--theta-hi", type=float, default=2.0)
    est.add_argument("--coarse-points", type=int, default=201)
    est.add_argument("--refine-tol", type=float, default=1e-8)
    est.add_argument("--out", default=None, help="optionally write the result as CSV")

    exp = sub.add_parser("experiment", help="run a Monte Carlo experiment from a config file")
    exp.add_argument("--kind", choices=KINDS, default=None, help="overrides the config file")
    exp.add_argument("--config", required=True)
    exp.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field (repeatable; flags win over the file)",
    )
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--out-dir", default=None)
    return parser


def cmd_simulate(args) -> int:
    if args.n < 2:
        raise CliError(f"--n must be >= 2, got {args.n}")
    if args.m < 1:
        raise CliError(f"--m must be >= 1, got {args.m}")
    if args.process == "ou":
        if not 0 < args.eps < math.inf:
            raise CliError(f"--eps must be positive and finite, got {args.eps}")
        for flag, value in (("--theta", args.theta), ("--x0", args.x0)):
            if not math.isfinite(value):
                raise CliError(f"{flag} must be finite, got {value}")
    rng = RngState(args.seed, args.stream)
    try:
        z = _driver(args.generator, args.q, args.H, args.n, args.m, args.t_max)(rng)
    except ValueError as exc:
        flag = next((f for key, f in _DRIVER_FLAGS if key in str(exc)), "--H")
        raise CliError(f"{flag}: {exc}") from exc
    if args.process == "ou":
        with np.errstate(over="ignore", invalid="ignore"):
            integral = discounted_integral_rows(z.values, z.times, args.theta)
            values = exact_solution(integral, np.exp(args.theta * z.times), args.eps, args.x0)
        if not np.isfinite(values).all():
            raise CliError(
                f"--theta/--eps/--x0: the OU solution with theta = {args.theta:g}, eps = {args.eps:g} "
                f"and x0 = {args.x0:g} overflows a double on [0, {args.t_max:g}]"
            )
        path = z.with_values(values, f"ou-exact(theta={args.theta:g},eps={args.eps:g},x0={args.x0:g})")
    else:
        path = z
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        write_path_csv(path, fh)
    print(f"wrote {args.out} ({path.n + 1} grid points, generator {path.provenance.tag})")
    return 0


def cmd_estimate(args) -> int:
    if not args.theta_lo < args.theta_hi:
        raise CliError(
            f"--theta-lo must be below --theta-hi, got [{args.theta_lo}, {args.theta_hi}]"
        )
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            path = read_path_csv(fh)
        except ValueError as exc:
            raise CliError(f"malformed path CSV {args.input}: {exc}") from exc
    try:
        _check_normal_start(args.x0)
        cfg = EstimatorConfig(args.theta_lo, args.theta_hi, args.coarse_points, args.refine_tol)
        res = minimize_l1(path, args.x0, cfg)
    except ValueError as exc:
        flag = next((f for key, f in _ESTIMATE_FLAGS if key in str(exc)), "--theta-lo/--theta-hi")
        raise CliError(f"{flag}: {exc}") from exc
    print(f"theta_hat={res.theta_hat:.17g}")
    print(f"objective={res.objective_value:.17g}")
    print(f"n_evals={res.n_evals}")
    print(f"bracket=[{res.bracket[0]:.17g},{res.bracket[1]:.17g}]")
    if res.bracket[0] <= cfg.theta_lo or res.bracket[1] >= cfg.theta_hi:
        print(
            f"warning: theta_hat={res.theta_hat:.17g} lies at the edge of the window "
            f"[{cfg.theta_lo:.17g}, {cfg.theta_hi:.17g}]; widen --theta-lo/--theta-hi",
            file=sys.stderr,
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("theta_hat,objective_value,n_evals,bracket_lo,bracket_hi\n")
            fh.write(
                f"{res.theta_hat:.17g},{res.objective_value:.17g},{res.n_evals},"
                f"{res.bracket[0]:.17g},{res.bracket[1]:.17g}\n"
            )
    return 0


def _validate_csv(path: str, kind: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        expected = ",".join(SCHEMAS[kind])
        if header != expected:
            raise CliError(f"{path}: header {header!r} does not match schema {expected!r}")
        count = 0
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(SCHEMAS[kind]):
                raise CliError(f"{path}:{lineno}: expected {len(SCHEMAS[kind])} columns")
            for cell in cells:
                float(cell)
            count += 1
        if count == 0:
            raise CliError(f"{path}: no data rows were written")


def cmd_experiment(args) -> int:
    raw = _parse_config_file(args.config)
    for item in args.overrides:
        if "=" not in item:
            raise CliError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()
    if args.kind is not None:
        raw["kind"] = args.kind
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    if args.out_dir is not None:
        raw["out_dir"] = args.out_dir
    if "kind" not in raw:
        raise CliError(f"experiment kind missing; pass --kind or set it in the config "
                       f"(valid kinds: {', '.join(KINDS)})")
    try:
        cfg = ExperimentConfig(**_coerce_config(raw))
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid experiment configuration: {exc}") from exc
    rows = run_experiment(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, f"{cfg.kind}.csv")
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        write_rows_csv(rows, cfg.kind, fh)
    _validate_csv(out_path, cfg.kind)
    print(f"wrote {out_path} ({len(rows)} rows)")
    for name, passed, detail in band_summaries(cfg, rows):
        status = "SKIP" if passed is None else "PASS" if passed else "FAIL"
        print(f"band {name}: {status} ({detail})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"simulate": cmd_simulate, "estimate": cmd_estimate, "experiment": cmd_experiment}
    try:
        return handlers[args.command](args)
    except (CliError, OSError, ValueError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
