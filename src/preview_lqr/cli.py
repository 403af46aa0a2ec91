"""Command-line benchmark harness.

Subcommands:
  pendulum-grid      paired-regret grid on the inverted pendulum
  random-grid        paired-regret grid on random controllable systems
  disturbance-grid   either system with Gaussian process noise
  bound-check        constants, bound value, and margin on one instance
  verify             oracle-equivalence and property suites

A flat key-value config file can override defaults, and explicit flags
win over it. Every value given neither way is the library's default, from
``ExperimentConfig`` and ``pendulum_cost_bounds()``. Exit codes: 0
success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import verification
from .bounds import make_bound_report
from .costs import random_uniform_schedule
from .experiments import (
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
                try:
                    values[key] = tuple(map(float, value.split(","))) if kind == "floats" else kind(value)
                except ValueError as err:
                    raise ValueError(f"line {lineno}: bad value for key {key!r}: {err}") from err
    except OSError as err:
        raise ValueError(f"cannot read config file {path}: {err}") from err
    return values


def _add_grid_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--t-min", type=int, default=None)
    parser.add_argument("--t-max", type=int, default=None)
    parser.add_argument("--t-step", type=int, default=None)
    parser.add_argument("--w-max", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--svg", action="store_true")
    parser.add_argument("--workers", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preview-lqr",
        description="Online LQR with previewed costs: benchmark grids, "
        "bound evaluation, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--config", type=str, default=None, metavar="FILE")
    for name in ("pendulum", "random", "disturbance"):
        p = sub.add_parser(f"{name}-grid", parents=[common], help=f"run the {name} grid")
        _add_grid_flags(p)
        if name == "disturbance":
            p.add_argument("--system", choices=("pendulum", "random"), default=None)
            p.add_argument("--cov-scale", type=float, default=None)
    p = sub.add_parser(
        "bound-check", parents=[common], help="constants and bound on one instance"
    )
    p.add_argument("--t", type=int, default=50)
    p.add_argument("--w", type=int, default=5)
    sub.add_parser("verify", parents=[common], help="run the verification suites")
    return parser


# Config keys and flags that name an ExperimentConfig field differently.
_FIELD_NAMES = {
    "seed": "master_seed", "cov_scale": "disturbance_cov_scale", "out": "output_dir"
}
# Each cost bound's scalar: q * I for state costs, [[r]] for control costs.
_BOUND_KEYS = {"q_min": "Q_min", "q_max": "Q_max", "r_min": "R_min", "r_max": "R_max"}


def _given(settings: dict, *keys) -> dict:
    return {key: settings[key] for key in keys if key in settings}


def _experiment_config(settings: dict, scenario: str) -> ExperimentConfig:
    """ExperimentConfig with the given settings in place of its defaults.

    A cost bound that is not given keeps its ``pendulum_cost_bounds()`` value.
    """
    base = pendulum_cost_bounds()
    scaled = {
        name: settings[key] * np.eye(len(getattr(base, name)))
        for key, name in _BOUND_KEYS.items()
        if key in settings
    }
    given = {_FIELD_NAMES.get(key, key): value for key, value in settings.items()}
    kwargs = _given(given, *(f.name for f in fields(ExperimentConfig)))
    return ExperimentConfig(scenario=scenario, bounds=replace(base, **scaled), **kwargs)


def _run_grid_command(settings: dict, scenario: str) -> int:
    cfg = _experiment_config(settings, scenario)
    result = run_grid(cfg, **_given(settings, "workers"))
    os.makedirs(cfg.output_dir, exist_ok=True)
    csv_path = os.path.join(cfg.output_dir, f"{cfg.scenario}.csv")
    emit_csv(result, csv_path)
    print(f"wrote {len(result.rows)} cells to {csv_path}")
    if settings["svg"]:
        svg_path = os.path.join(cfg.output_dir, f"{cfg.scenario}.svg")
        emit_heatmap_svg(result, "phi_mean", svg_path)
        print(f"wrote heatmap to {svg_path}")
    for T, W, reason in result.failures:
        print(f"cell (T={T}, W={W}) failed: {reason}")
    return 0


def _run_bound_check(settings: dict) -> int:
    cfg = _experiment_config(settings, "pendulum")
    seed, bounds, T, W = cfg.master_seed, cfg.bounds, settings["t"], settings["w"]
    sys_ = inverted_pendulum(np.asarray(cfg.x0, dtype=float))
    K_track = place_poles_single_input(sys_, cfg.poles)
    schedule = random_uniform_schedule(bounds, T, generator(seed, "bound-check", T, W))
    planner = FrozenPlanner(sys_, schedule)
    traj = prediction_tracking_policy(
        sys_, schedule, PolicyConfig(W, K_track), planner=planner
    )
    realized = regret_via_control_deviation(
        traj, sys_, schedule, solution=planner.solution()
    )
    report = make_bound_report(planner, K_track, W, realized, bounds)
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


def _run_verify(settings: dict) -> int:
    results = verification.run_all(**_given(settings, "seed"))
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
        settings = _parse_config_file(args.config) if args.config else {}
        settings.update((k, v) for k, v in vars(args).items() if v is not None)
        if args.command == "pendulum-grid":
            return _run_grid_command(settings, "pendulum")
        if args.command == "random-grid":
            return _run_grid_command(settings, "random")
        if args.command == "disturbance-grid":
            system = settings.get("system", "pendulum")
            return _run_grid_command(settings, f"{system}-disturbance")
        if args.command == "bound-check":
            return _run_bound_check(settings)
        if args.command == "verify":
            return _run_verify(settings)
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
