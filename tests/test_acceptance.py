"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line with the measured quantity (visible with pytest -s).
"""

import time

import numpy as np
import pytest

from preview_lqr.bounds import (
    compute_bound_constants,
    regret_upper_bound,
    scaling_certificate,
)
from preview_lqr.cli import cli_main
from preview_lqr.costs import CostBounds, CostSchedule, random_uniform_schedule
from preview_lqr.experiments import ExperimentConfig, pendulum_cost_bounds, run_grid
from preview_lqr.policies import (
    FrozenPlanner,
    PolicyConfig,
    clairvoyant_policy,
    prediction_tracking_policy,
)
from preview_lqr.regret import regret_via_control_deviation
from preview_lqr.riccati import _only
from preview_lqr.seeding import generator
from preview_lqr.systems import (
    DisturbanceModel,
    LinearSystem,
    inverted_pendulum,
    place_poles_single_input,
    random_controllable_system,
)
from preview_lqr import verification

PENDULUM_POLES = (1e-3, 6e-3, 4e-3, 3e-3)


def report(number, name, ok, detail):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_01_oracle_equivalence():
    start = time.time()
    result = verification.oracle_equivalence(seed=0, instances=50, tol=1e-8)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 5.0
    report(1, "oracle equivalence", ok, f"{result.detail}, {elapsed:.2f}s")


def test_02_affine_oracle_equivalence():
    start = time.time()
    result = verification.affine_oracle_equivalence(seed=0, instances=50, tol=1e-8)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 5.0
    report(2, "affine oracle equivalence", ok, f"{result.detail}, {elapsed:.2f}s")


def test_03_scalar_fixed_point():
    result = verification.dare_fixed_point_check(tol=1e-10)
    report(3, "scalar fixed point", result.passed, result.detail)


def test_04_regret_identity_pendulum():
    sys_ = inverted_pendulum()
    bounds = pendulum_cost_bounds()
    schedule = random_uniform_schedule(bounds, 50, generator(0, "acceptance", "identity"))
    K = place_poles_single_input(sys_, PENDULUM_POLES)
    traj = prediction_tracking_policy(sys_, schedule, PolicyConfig(5, K))
    direct = traj.cost - clairvoyant_policy(sys_, schedule).cost
    ident = regret_via_control_deviation(traj, sys_, schedule)
    gap = abs(direct - ident)
    tol = 1e-6 * max(1.0, abs(direct))
    report(
        4,
        "regret identity (pendulum T=50 W=5)",
        gap <= tol,
        f"direct {direct:.6e}, identity {ident:.6e}, gap {gap:.2e} <= {tol:.2e}",
    )


def test_05_full_preview_zero_regret():
    worst = 0.0
    # Pendulum at the maximal legal preview.
    sys_ = inverted_pendulum()
    bounds = pendulum_cost_bounds()
    schedule = random_uniform_schedule(bounds, 50, generator(1, "acceptance", "full-preview"))
    K = place_poles_single_input(sys_, PENDULUM_POLES)
    traj = prediction_tracking_policy(sys_, schedule, PolicyConfig(48, K))
    opt = clairvoyant_policy(sys_, schedule)
    worst = max(worst, abs(traj.cost - opt.cost) / max(1.0, opt.cost) / 1e-8)
    # Random instances at the maximal legal preview.
    rng = generator(2, "acceptance", "full-preview-random")
    for _ in range(3):
        n = int(rng.integers(2, 4))
        T = int(rng.integers(10, 25))
        sys_r = random_controllable_system(n, 1, -1.2, 1.2, rng, x0=rng.standard_normal(n))
        b = CostBounds(0.5 * np.eye(n), 2.5 * np.eye(n), [[0.4]], [[1.6]])
        sched = random_uniform_schedule(b, T, rng)
        Kr = place_poles_single_input(sys_r, np.linspace(0.05, 0.3, n))
        traj_r = prediction_tracking_policy(sys_r, sched, PolicyConfig(T - 2, Kr))
        opt_r = clairvoyant_policy(sys_r, sched)
        worst = max(worst, abs(traj_r.cost - opt_r.cost) / max(1.0, opt_r.cost) / 1e-8)
    # Constant schedules at any preview length.
    const = CostSchedule(
        tuple(1.6e4 * np.eye(4) for _ in range(40)),
        tuple(np.array([[5e4]]) for _ in range(39)),
    )
    opt_c = clairvoyant_policy(sys_, const)
    for W in (0, 7, 23, 38):
        traj_c = prediction_tracking_policy(sys_, const, PolicyConfig(W, K))
        worst = max(worst, abs(traj_c.cost - opt_c.cost) / max(1.0, opt_c.cost) / 1e-8)
    report(
        5,
        "full preview and constant schedules give zero regret",
        worst <= 1.0,
        f"worst regret at {worst:.3f} of the 1e-8 relative budget",
    )


def test_06_bound_dominance_grid():
    start = time.time()
    cfg = ExperimentConfig(
        scenario="pendulum", t_min=20, t_max=100, t_step=20,
        w_min=0, w_max=10, trials=2, master_seed=0,
    )
    result = run_grid(cfg)
    assert result.failures == ()
    assert len(result.rows) == 5 * 11
    worst_margin = min(r.margin_min / max(r.bound, 1.0) for r in result.rows)
    dominance_ok = all(r.margin_min >= -1e-6 * r.bound for r in result.rows)

    sys_ = inverted_pendulum()
    schedule = random_uniform_schedule(
        pendulum_cost_bounds(), 60, generator(3, "acceptance", "ratio")
    )
    K = place_poles_single_input(sys_, PENDULUM_POLES)
    constants = _only(compute_bound_constants(FrozenPlanner(sys_, schedule), K, [4]))
    ratio_err = 0.0
    for W in (0, 3, 7):
        lo = regret_upper_bound(constants, 60, W, sys_.x0)
        hi = regret_upper_bound(constants, 60, W + 1, sys_.x0)
        ratio_err = max(ratio_err, abs(hi / lo - constants.gamma**2) / constants.gamma**2)
    elapsed = time.time() - start
    ok = dominance_ok and ratio_err <= 1e-12 and elapsed < 120.0
    report(
        6,
        "bound dominance on the pendulum grid",
        ok,
        f"worst margin/bound {worst_margin:.2e}, preview ratio error {ratio_err:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_07_bound_sublinearity():
    sys_ = LinearSystem([[0.5]], [[1.0]], [1.0])
    schedule = CostSchedule(
        tuple(np.eye(1) for _ in range(50)), tuple(np.eye(1) for _ in range(49))
    )
    constants = _only(compute_bound_constants(FrozenPlanner(sys_, schedule), [[0.0]], [0]))
    values = {T: regret_upper_bound(constants, T, 0, sys_.x0) for T in (100, 1000, 10000)}
    per_step = [values[T] / T for T in (100, 1000, 10000)]
    decreasing = per_step[0] > per_step[1] > per_step[2]
    converged = abs(values[10000] - values[1000]) <= 1e-6 * values[1000]
    report(
        7,
        "bound grows sublinearly and converges",
        decreasing and converged,
        f"bound/T = {per_step[0]:.3e}, {per_step[1]:.3e}, {per_step[2]:.3e}; "
        f"|b(1e4)-b(1e3)|/b(1e3) = {abs(values[10000] - values[1000]) / values[1000]:.2e}",
    )


def test_08_pendulum_phi_positive():
    start = time.time()
    cfg = ExperimentConfig(
        scenario="pendulum", t_min=200, t_max=200, t_step=1,
        w_min=3, w_max=10, trials=20, master_seed=3,
    )
    result = run_grid(cfg)
    elapsed = time.time() - start
    assert result.failures == ()
    phis = {r.W: r.phi_mean for r in result.rows}
    ok = all(v > 0.0 for v in phis.values()) and elapsed < 180.0
    detail = ", ".join(f"W={w}: {v:.2e}" for w, v in sorted(phis.items()))
    report(8, "pendulum paired-regret gap positive for W in 3..10", ok, f"{detail}; {elapsed:.1f}s")


def test_09_random_phi_positive():
    start = time.time()
    cfg = ExperimentConfig(
        scenario="random", t_min=200, t_max=200, t_step=1,
        w_min=5, w_max=10, trials=20, master_seed=0,
    )
    result = run_grid(cfg)
    elapsed = time.time() - start
    assert result.failures == ()
    rows = {r.W: r for r in result.rows}
    positive = all(r.phi_mean > 0.0 for r in rows.values())
    exclusions_ok = all(r.excluded_trials <= cfg.trials // 2 for r in rows.values())
    detail = ", ".join(
        f"W={w}: {r.phi_mean:.2e} (excl {r.excluded_trials})" for w, r in sorted(rows.items())
    )
    report(
        9,
        "random-system paired-regret gap positive for W in 5..10",
        positive and exclusions_ok,
        f"{detail}; {elapsed:.1f}s",
    )


def test_10_disturbance_scaling():
    start = time.time()
    rep = scaling_certificate(
        inverted_pendulum(),
        pendulum_cost_bounds(),
        DisturbanceModel(25.0 * np.eye(4)),
        Ts=(50, 100, 200),
        W=8,
        trials=50,
        master_seed=0,
    )
    elapsed = time.time() - start
    ok = rep.certified and rep.ratio <= 10.0 and elapsed < 300.0
    rates = ", ".join(f"T={T}: {r:.3e}" for T, r in zip(rep.Ts, rep.rates))
    report(
        10,
        "expected regret scales like T * gamma^(2W) under noise",
        ok,
        f"{rates}; max/min = {rep.ratio:.3f}; {elapsed:.1f}s",
    )


def test_11_property_suites():
    insts = verification._instances(seed=0, count=20)
    results = [
        verification.value_sandwich_suite(insts),
        verification.pass_perturbation_suite(insts),
        verification.closed_loop_decay_suite(insts),
        verification.state_deviation_suite(insts),
        verification.regret_identity_suite(insts),
        verification.squares_inequality_check(seed=0),
    ]
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}: {r.detail}" for r in results)
    report(11, "analytic property suites on 20 random instances", ok, detail)


def test_12_grid_determinism(tmp_path):
    args = [
        "pendulum-grid", "--t-min", "20", "--t-max", "40", "--t-step", "20",
        "--w-max", "4", "--trials", "2", "--seed", "11", "--svg",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b), "--workers", "3"]) == 0
    csv_same = (out_a / "pendulum.csv").read_bytes() == (out_b / "pendulum.csv").read_bytes()
    svg_same = (out_a / "pendulum.svg").read_bytes() == (out_b / "pendulum.svg").read_bytes()
    report(
        12,
        "byte-identical outputs across runs and worker counts",
        csv_same and svg_same,
        f"csv identical: {csv_same}, svg identical: {svg_same}",
    )
