"""Command-line benchmark harness.

Subcommands:
  pendulum-grid      paired-regret grid on the inverted pendulum
  random-grid        paired-regret grid on random controllable systems
  disturbance-grid   either system with Gaussian process noise
  bound-check        constants, bound value, and margin on one instance
  verify             oracle-equivalence and property suites

A flat key-value config file can override defaults; explicit flags win
over the config file. Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import verification
from .bounds import make_bound_report
from .costs import CostBounds, random_uniform_schedule
from .experiments import (
    DEFAULT_POLES,
    DEFAULT_X0,
    ExperimentConfig,
    emit_csv,
    emit_heatmap_svg,
    pendulum_cost_bounds,
    run_grid,
)
from .policies import FrozenPlanner, PolicyConfig, prediction_tracking_policy
from .regret import regret_via_control_deviation
from .seeding import generator
from .systems import inverted_pendulum, place_poles_single_input

_CONFIG_KEYS = {
    "t_min": int,
    "t_max": int,
    "t_step": int,
    "w_max": int,
    "trials": int,
    "seed": int,
    "workers": int,
    "out": str,
    "cov_scale": float,
    "system": str,
    "q_min": float,
    "q_max": float,
    "r_min": float,
    "r_max": float,
    "poles": "floats",
    "x0": "floats",
}


def _parse_config_file(path: str) -> dict:
    """Read `key = value` lines; '#' starts a comment, blanks are skipped."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                value = value.strip()
                if key not in _CONFIG_KEYS:
                    raise ValueError(f"line {lineno}: unknown key {key!r}")
                kind = _CONFIG_KEYS[key]
                if kind == "floats":
                    values[key] = tuple(float(v) for v in value.split(","))
                else:
                    values[key] = kind(value)
    except OSError as err:
        raise ValueError(f"cannot read config file {path}: {err}") from err
    return values


def _add_grid_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--t-min", type=int, default=None)
    parser.add_argument("--t-max", type=int, default=None)
    parser.add_argument("--t-step", type=int, default=None)
    parser.add_argument("--w-max", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--config", type=str, default=None, metavar="FILE")
    parser.add_argument("--svg", action="store_true")
    parser.add_argument("--workers", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preview-lqr",
        description="Online LQR with previewed costs: benchmark grids, "
        "bound evaluation, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("pendulum-grid", "random-grid", "disturbance-grid"):
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')}")
        _add_grid_flags(p)
        if name == "disturbance-grid":
            p.add_argument("--system", choices=("pendulum", "random"), default=None)
            p.add_argument("--cov-scale", type=float, default=None)
    p = sub.add_parser("bound-check", help="constants and bound on one instance")
    p.add_argument("--t", type=int, default=50)
    p.add_argument("--w", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", type=str, default=None, metavar="FILE")
    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", type=str, default=None, metavar="FILE")
    return parser


def _setting(args, config: dict, key: str, default):
    arg_val = getattr(args, key, None)
    if arg_val is not None and arg_val is not False:
        return arg_val
    if key in config:
        return config[key]
    return default


def _experiment_config(args, config: dict, scenario: str) -> tuple:
    q_min = _setting(args, config, "q_min", 8e3)
    q_max = _setting(args, config, "q_max", 3.2e4)
    r_min = _setting(args, config, "r_min", 2e3)
    r_max = _setting(args, config, "r_max", 9.8e4)
    x0 = _setting(args, config, "x0", DEFAULT_X0)
    n = len(x0)
    bounds = CostBounds(
        q_min * np.eye(n), q_max * np.eye(n), [[r_min]], [[r_max]]
    )
    cfg = ExperimentConfig(
        scenario=scenario,
        t_min=_setting(args, config, "t_min", 20),
        t_max=_setting(args, config, "t_max", 200),
        t_step=_setting(args, config, "t_step", 20),
        w_max=_setting(args, config, "w_max", 10),
        trials=_setting(args, config, "trials", 20),
        master_seed=_setting(args, config, "seed", 0),
        bounds=bounds,
        poles=_setting(args, config, "poles", DEFAULT_POLES),
        disturbance_cov_scale=_setting(args, config, "cov_scale", 25.0),
        x0=x0,
        output_dir=_setting(args, config, "out", "results"),
    )
    workers = _setting(args, config, "workers", 1)
    return cfg, workers


def _run_grid_command(args, config: dict, scenario: str) -> int:
    cfg, workers = _experiment_config(args, config, scenario)
    result = run_grid(cfg, workers=workers)
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, f"{cfg.scenario}.csv")
    emit_csv(result, csv_path)
    print(f"wrote {len(result.rows)} cells to {csv_path}")
    if args.svg:
        svg_path = os.path.join(cfg.output_dir, f"{cfg.scenario}.svg")
        emit_heatmap_svg(result, "phi_mean", svg_path)
        print(f"wrote heatmap to {svg_path}")
    for T, W, reason in result.failures:
        print(f"cell (T={T}, W={W}) failed: {reason}")
    return 0


def _run_bound_check(args, config: dict) -> int:
    seed = _setting(args, config, "seed", 0)
    T, W = args.t, args.w
    x0 = np.asarray(_setting(args, config, "x0", DEFAULT_X0), dtype=float)
    sys_ = inverted_pendulum(x0)
    bounds = pendulum_cost_bounds()
    poles = _setting(args, config, "poles", DEFAULT_POLES)
    K_track = place_poles_single_input(sys_, poles)
    schedule = random_uniform_schedule(bounds, T, generator(seed, "bound-check", T, W))
    planner = FrozenPlanner(sys_, schedule)
    traj = prediction_tracking_policy(
        sys_, schedule, PolicyConfig(W, K_track), planner=planner
    )
    realized = regret_via_control_deviation(
        traj, sys_, schedule, solution=planner.solution(T - 1)
    )
    report = make_bound_report(sys_, schedule, K_track, W, realized, bounds, planner)
    c = report.constants
    print(f"instance: pendulum, T={T}, W={W}, seed={seed}")
    for name in (
        "D", "C_K", "C", "eta", "alpha", "beta", "gamma",
        "alpha1", "alpha2", "C_f", "q", "epsilon",
    ):
        print(f"  {name:<8} = {getattr(c, name):.12g}")
    print(f"  lam_max(Pbar_max) = {float(np.linalg.eigvalsh(c.Pbar_max)[-1]):.12g}")
    print(f"bound value          = {report.bound_value:.12g}")
    print(f"realized regret      = {report.realized_regret:.12g}")
    print(f"margin               = {report.margin:.12g}")
    print(f"sufficient condition = {report.sufficient_condition_holds}")
    return 0


def _run_verify(args, config: dict) -> int:
    seed = _setting(args, config, "seed", 0)
    results = verification.run_all(seed=seed)
    all_ok = True
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print(f"{status:<5} {res.name:<32} {res.detail}")
        all_ok = all_ok and res.passed
    print("verification " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 1


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        code = exit_err.code
        return int(code) if code is not None else 0
    try:
        config = _parse_config_file(args.config) if args.config else {}
        if args.command == "pendulum-grid":
            return _run_grid_command(args, config, "pendulum")
        if args.command == "random-grid":
            return _run_grid_command(args, config, "random")
        if args.command == "disturbance-grid":
            system = _setting(args, config, "system", "pendulum")
            return _run_grid_command(args, config, f"{system}-disturbance")
        if args.command == "bound-check":
            return _run_bound_check(args, config)
        if args.command == "verify":
            return _run_verify(args, config)
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
