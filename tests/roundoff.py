"""Round-off contract: when may a change that moves bits regenerate grid outputs?

``compare_grids(parent_rows, change_rows, floors)`` lists the cells of a
change's grid that differ from its parent's by more than round-off. Ints
and bools must be equal. A float passes when it agrees within 1e-12
relative or within its cell's floor.

Floors are computed per trial from the code under test (``grid_floors``,
``certificate_floors``). With u the unit roundoff, eps_pass the relative
error of the true pass's P* and K* against a long-double backward pass of
the same schedule and eps_dare the estimated error of the trial's DARE
solutions (``dare_eps``), tau = 16 max(u, eps_pass, eps_dare). Along a
policy's run, with
d_t = u_t - K*_t x_t and delta_t = tau (|u_t| + |K*_t|_2 |x_t|), the
floors are:

- an identity regret, sum_t d_t' G_t d_t: sum_t |G_t|_2 (2 |d_t| delta_t
  + delta_t^2), the first-order error of that sum when d_t is off by
  delta_t (Higham, *Accuracy and Stability of Numerical Algorithms*,
  ch. 3-4);
- a cost-difference regret (noisy grids): tau (J_policy + J_opt);
- a mean column: the mean of its trials' floors; ``phi_mean`` takes the
  sum of both policies' floors and ``phi_stderr`` the largest such sum,
  which bounds the move of a standard error;
- ``bound``: tau kappa |bound|, with kappa the bound's largest relative
  sensitivity to one scalar constant, by central differences in
  ``regret_upper_bound``; ``margin_min`` adds the identity floor.

The gap between the two regret routes, |(J_policy - J*) - identity|, is
reported per cell as ``route_gap`` but is not a floor: x0' P*_0 x0 carries
the pass error times J, which on the pendulum is far above the regrets.

Run as a script, it compares two grid CSVs of one command line, with the
floors of the code on the path:

    PYTHONPATH=src python tests/roundoff.py PARENT.csv CHANGE.csv -- \\
        pendulum-grid --t-min 20 --t-max 100 --t-step 20 --trials 5 --seed 1
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from preview_lqr import cli
from preview_lqr.bounds import compute_bound_constants, generator_seed, regret_upper_bound
from preview_lqr.costs import random_uniform_schedule
from preview_lqr.experiments import GridRow, _evaluate_trial, _trial_system, parse_csv
from preview_lqr.policies import (
    FrozenPlanner,
    PolicyConfig,
    baseline_law,
    clairvoyant_law,
    default_tracking_poles,
    tracking_law,
)
from preview_lqr.riccati import simulate, solve_dare
from preview_lqr.seeding import generator
from preview_lqr.systems import DisturbanceModel, place_poles_single_input, spectral_radius

UNIT_ROUNDOFF = np.finfo(float).eps / 2
RELATIVE = 1e-12
# Relative step of the central differences for kappa.
SENSITIVITY_STEP = 1e-8


def _values(row) -> dict:
    return dataclasses.asdict(row) if dataclasses.is_dataclass(row) else dict(row)


def compare_grids(parent_rows, change_rows, floors) -> list:
    """The cells of ``change_rows`` that the contract rejects against ``parent_rows``.

    Rows are dataclasses (``GridRow``) or dicts, in the same order, and
    ``floors[i]`` maps row i's float columns to their floors (a missing one
    is 0). Returns (row index, column, parent value, change value, floor)
    per rejected cell; an empty list accepts the change.
    """
    if len(parent_rows) != len(change_rows):
        return [(None, "rows", len(parent_rows), len(change_rows), 0.0)]
    rejected = []
    for i, (a, b) in enumerate(zip(parent_rows, change_rows)):
        a, b = _values(a), _values(b)
        for name in a.keys() | b.keys():
            x, y = a.get(name), b.get(name)
            floor = floors[i].get(name, 0.0)
            if isinstance(x, float) and isinstance(y, float):
                if x == y or (np.isnan(x) and np.isnan(y)):
                    continue
                if abs(x - y) <= max(RELATIVE * max(abs(x), abs(y)), floor):
                    continue
            elif type(x) is type(y) and x == y:
                continue
            rejected.append((i, name, x, y, floor))
    return rejected


def longdouble_pass(sys_, schedule):
    """The true pass (P, K) in long double, for single-input systems."""
    ld = np.longdouble
    A, B, Q, R = (np.asarray(M, dtype=ld) for M in (sys_.A, sys_.B, schedule.Q, schedule.R))
    if B.shape[1] != 1:
        raise ValueError("the long-double pass takes single-input systems")
    T = schedule.horizon
    P = np.empty((T,) + Q.shape[1:], dtype=ld)
    K = np.empty((T - 1,) + B.T.shape, dtype=ld)
    P[T - 1] = Q[T - 1]
    for i in range(T - 2, -1, -1):
        PA, PB = P[i + 1] @ A, P[i + 1] @ B
        K[i] = -(B.T @ PA) / (R[i] + B.T @ PB)
        Pi = A.T @ PA + Q[i] + (A.T @ PB) @ K[i]
        P[i] = 0.5 * (Pi + Pi.T)
    return P, K


def pass_eps(sys_, schedule, sol) -> float:
    """Relative error of the true pass ``sol`` against its long-double recomputation."""
    eps = 0.0
    for got, ref in zip((sol.P, sol.K), longdouble_pass(sys_, schedule)):
        err = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        eps = max(eps, float(err.max()))
    return eps


def dare_eps(sys_, Q, R, P) -> float:
    """Relative error estimate of a fixed point P of the Riccati map, single input.

    Its long-double residual |F(P) - P| / |P| over 1 - rho(A + B K)^2, the
    map's contraction near the fixed point: to first order P's error is the
    residual carried through the inverse of the Stein operator
    X -> X - (A + B K)' X (A + B K), which grows like 1 / (1 - rho^2).
    """
    ld = np.longdouble
    A, B, Q, R, P = (np.asarray(M, dtype=ld) for M in (sys_.A, sys_.B, Q, R, P))
    PA, PB = P @ A, P @ B
    K = -(B.T @ PA) / (R + B.T @ PB)
    F = A.T @ PA + Q + (A.T @ PB) @ K
    residual = float(np.abs(F - P).max() / np.abs(P).max())
    rho = spectral_radius(sys_.A + sys_.B @ K.astype(float))
    return residual / (1.0 - rho**2) if rho < 1.0 else np.inf


def identity_floor(traj, sys_, schedule, sol, tau) -> float:
    """Floor of the control-deviation identity's regret along ``traj``."""
    x, u = traj.x[:-1], traj.u
    d = np.linalg.norm(u - np.einsum("tmn,tn->tm", sol.K, x), axis=1)
    K_norm = np.linalg.norm(sol.K, 2, axis=(1, 2))
    delta = tau * (np.linalg.norm(u, axis=1) + K_norm * np.linalg.norm(x, axis=1))
    G = schedule.R + sys_.B.T @ sol.P[1:] @ sys_.B
    return float(np.sum(np.linalg.norm(G, 2, axis=(1, 2)) * (2 * d * delta + delta**2)))


def bound_kappa(constants, T: int, W: int, x0) -> float:
    """Largest relative sensitivity of the bound to one scalar constant."""
    bound = regret_upper_bound(constants, T, W, x0)
    kappa = 0.0
    for f in dataclasses.fields(constants):
        v = getattr(constants, f.name)
        if not isinstance(v, float) or v == 0.0:
            continue
        up, down = (
            regret_upper_bound(dataclasses.replace(constants, **{f.name: v * (1 + s)}), T, W, x0)
            for s in (SENSITIVITY_STEP, -SENSITIVITY_STEP)
        )
        kappa = max(kappa, abs(up - down) / (2 * SENSITIVITY_STEP * abs(bound)))
    return kappa


def _only_run(sys_, schedule, law, w):
    (run,) = simulate(sys_, schedule, law[0], sys_.x0, w, *law[1:])
    return run


def trial_floors(config, T: int, trial: int) -> dict:
    """Per W of one grid trial, the floors of (ours, mpc, bound, margin), its margin and route gap.

    The instance is the one ``_evaluate_trial`` builds; a W whose trial
    failed is left out.
    """
    outcome = _evaluate_trial(config, T, trial)
    sys_, K_track = _trial_system(config, T, trial)
    P_max = solve_dare(sys_.A, sys_.B, config.bounds.Q_max, config.bounds.R_max)
    schedule = random_uniform_schedule(
        config.bounds, T, generator(config.master_seed, config.scenario, T, trial, "schedule")
    )
    w = None
    if config.noisy:
        dist = DisturbanceModel(config.disturbance_cov_scale * np.eye(sys_.n))
        w = dist.sample(generator(config.master_seed, config.scenario, T, trial, "disturbance"), T - 1)
    done = {min(W, T - 2): cell for W, cell in outcome.items() if not isinstance(cell, str)}
    if not done:
        return {}
    planner = FrozenPlanner(sys_, schedule, w, list(done))
    sol = planner.solution()
    if w is None:
        J_opt = _only_run(sys_, schedule, (sol.K, None, None), None).cost
    else:
        J_opt = _only_run(sys_, schedule, clairvoyant_law(sys_, sol, w), w).cost
    constants = dict(zip(done, compute_bound_constants(planner, K_track, list(done))))
    c = next(iter(constants.values()))
    tau = 16.0 * max(
        UNIT_ROUNDOFF,
        pass_eps(sys_, schedule, sol),
        dare_eps(sys_, config.bounds.Q_max, config.bounds.R_max, P_max),
        dare_eps(sys_, c.Qbar_max, c.Rbar_max, c.Pbar_max),
    )
    out = {}
    for (W, cell), base in zip(done.items(), baseline_law(sys_, schedule, list(done), P_max)):
        runs = [
            _only_run(sys_, schedule, tracking_law(planner, PolicyConfig(W, K_track)), w),
            _only_run(sys_, schedule, base, w),
        ]
        regrets = cell[:2]
        if w is None:
            f = [identity_floor(run, sys_, schedule, sol, tau) for run in runs]
            gap = max(abs((run.cost - J_opt) - r) for run, r in zip(runs, regrets))
        else:
            f = [tau * (run.cost + J_opt) for run in runs]
            gap = 0.0
        bound = cell[2]
        f_bound = tau * bound_kappa(constants[W], T, W, sys_.x0) * abs(bound)
        out[W] = (f[0], f[1], f_bound, f_bound + f[0], bound - regrets[0], gap)
    return out


def grid_floors(config) -> list:
    """Per row of ``run_grid(config)``, in its order, the floor of every float column.

    Each dict also holds ``route_gap``, the largest two-route gap of the
    cell's trials, which ``compare_grids`` does not read.
    """
    floors = []
    for T in config.t_values:
        trials = [trial_floors(config, T, trial) for trial in range(config.trials)]
        for W in config.w_values:
            cells = [t[min(W, T - 2)] for t in trials if min(W, T - 2) in t]
            if not cells:
                continue
            ours, mpc, bound, margin, margins, gap = (np.array(c) for c in zip(*cells))
            # As in the grid, the trial of least margin supplies bound and margin_min.
            best = int(np.argmin(margins))
            floors.append({
                "phi_mean": float(np.mean(ours + mpc)),
                "phi_stderr": float(np.max(ours + mpc)),
                "regret_ours_mean": float(np.mean(ours)),
                "regret_mpc_mean": float(np.mean(mpc)),
                "bound": float(bound[best]),
                "margin_min": float(margin[best]),
                "route_gap": float(gap.max()),
            })
    return floors


def report_values(report) -> dict:
    """A ``ScalingReport`` as one row: tuple fields become ``name[k]`` columns."""
    row = {}
    for name, value in dataclasses.asdict(report).items():
        if isinstance(value, tuple):
            row.update((f"{name}[{k}]", v) for k, v in enumerate(value))
        else:
            row[name] = value
    return row


def certificate_floors(sys_, schedule_spec, dist, Ts, W, trials, master_seed, poles=None) -> dict:
    """Floors of ``scaling_certificate``'s float fields, as ``report_values`` names them.

    Its Monte-Carlo regrets are cost differences, with the cost-difference
    floor per trial; gamma = alpha / (alpha + beta) takes 2 tau relative,
    a rate its regret's floor plus 2W times gamma's, and the ratio the sum
    of the two largest relative rate floors.
    """
    K_track = place_poles_single_input(sys_, default_tracking_poles(sys_.n) if poles is None else poles)
    cfg = PolicyConfig(W, K_track)
    floors, rates, rel_rates = {}, [], []
    for k, T in enumerate(Ts):
        schedule = random_uniform_schedule(schedule_spec, T, generator(master_seed, "scaling", "schedule", T))
        seed, f, diffs = generator_seed(master_seed, T), [], []
        w = np.stack([dist.sample(generator(seed, "mc", "disturbance", t), T - 1) for t in range(trials)])
        # Each trial's law in the batch is that trial's own, bit for bit.
        planner = FrozenPlanner(sys_, schedule, w, [W])
        sol = planner.solution()
        (c,) = compute_bound_constants(planner, K_track, [W])
        tau = 16.0 * max(
            UNIT_ROUNDOFF, pass_eps(sys_, schedule, sol), dare_eps(sys_, c.Qbar_max, c.Rbar_max, c.Pbar_max)
        )
        laws = tracking_law(planner, cfg), clairvoyant_law(sys_, sol, w)
        for t in range(trials):
            ours, opt = (_only_run(sys_, schedule, [a[t] for a in law], w[t]) for law in laws)
            if not isinstance(ours, Exception) and not isinstance(opt, Exception):
                f.append(tau * (ours.cost + opt.cost))
                diffs.append(ours.cost - opt.cost)
        regret = float(np.mean(diffs))
        floors[f"expected_regrets[{k}]"] = float(np.mean(f))
        floors[f"stderrs[{k}]"] = float(np.max(f))
        floors[f"gammas[{k}]"] = 2 * tau * c.gamma
        rates.append(regret / (T * c.gamma ** (2 * W)))
        rel_rates.append(float(np.mean(f)) / abs(regret) + 4 * W * tau)
        floors[f"rates[{k}]"] = rel_rates[-1] * abs(rates[-1])
    floors["ratio"] = abs(max(rates) / min(rates)) * sum(sorted(rel_rates)[-2:])
    return floors


def _grid_config(argv):
    """The ExperimentConfig of a grid command line, as the CLI builds it."""
    args = cli.build_parser().parse_args(argv)
    settings = cli._parse_config_file(args.config) if args.config else {}
    settings.update((k, v) for k, v in vars(args).items() if v is not None)
    scenario = args.command.removesuffix("-grid")
    if scenario == "disturbance":
        scenario = f"{settings.get('system', 'pendulum')}-disturbance"
    return cli._experiment_config(settings, scenario)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two grid CSVs under the round-off contract.")
    parser.add_argument("parent_csv")
    parser.add_argument("change_csv")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="the grid command line, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    parent, change = (parse_csv(p).rows for p in (args.parent_csv, args.change_csv))
    floors = grid_floors(_grid_config(command))
    rejected = compare_grids(parent, change, floors)
    for name in (f.name for f in dataclasses.fields(GridRow) if f.type == "float"):
        rel = of_floor = 0.0
        for a, b, f in zip(parent, change, floors):
            x, y = getattr(a, name), getattr(b, name)
            if x != y:
                rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
                of_floor = max(of_floor, abs(x - y) / f[name])
        print(f"{name:<18} largest move {rel:.3g} relative, {of_floor:.3g} of its floor")
    print(f"largest route gap {max(f['route_gap'] for f in floors):.3g}")
    for cell in rejected:
        print("rejected", cell)
    print("accepted" if not rejected else f"rejected {len(rejected)} cells")
    return 0 if not rejected else 1


if __name__ == "__main__":
    sys.exit(main())
