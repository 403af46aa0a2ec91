"""Cost and dynamic-regret evaluation.

Dynamic regret is the cost of a policy's trajectory minus the cost of the
clairvoyant trajectory on the same instance. A quadratic-form identity
rewrites the disturbance-free regret as a weighted sum of deviations from
the optimal feedback along the policy's own states, which gives an
independent evaluation route. Monte-Carlo aggregation over disturbance
draws uses deterministic per-trial substreams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostBounds, CostSchedule, random_uniform_schedule, sequence_extrema
from .policies import (
    FrozenPlanner,
    PolicyConfig,
    clairvoyant_policy,
    default_tracking_poles,
    mpc_baseline_policy,
    prediction_tracking_policy,
)
from .riccati import Trajectory, TrajectoryOverflowError, backward_riccati, solve_dare
from .seeding import generator
from .systems import DisturbanceModel, LinearSystem, place_poles_single_input


class AllTrialsFailedError(RuntimeError):
    """Every Monte-Carlo trial overflowed; no estimate is available."""


@dataclass(frozen=True)
class RegretReport:
    """Realized regret together with the costs it was derived from."""

    regret: float
    cost_policy: float
    cost_optimal: float
    trials: int = 1
    stderr: float | None = None
    excluded_trials: int = 0


def regret(
    policy_traj: Trajectory, sys: LinearSystem, schedule: CostSchedule, w=None
) -> RegretReport:
    """Dynamic regret of a trajectory against the clairvoyant comparator."""
    opt = clairvoyant_policy(sys, schedule, w)
    return RegretReport(
        regret=policy_traj.cost - opt.cost,
        cost_policy=policy_traj.cost,
        cost_optimal=opt.cost,
    )


def regret_via_control_deviation(
    policy_traj: Trajectory,
    sys: LinearSystem,
    schedule: CostSchedule,
    solution=None,
) -> float:
    """Regret as a weighted sum of deviations from the optimal feedback.

    Evaluates sum_t (u[t] - K*[t] x[t])' (R[t] + B' P*[t+1] B)
    (u[t] - K*[t] x[t]) along the trajectory's own states, with P*, K*
    from the backward pass on the true schedule. Exact for disturbance-free
    runs; on noisy runs the returned value is a diagnostic, not the regret.
    """
    sol = solution if solution is not None else backward_riccati(sys, schedule)
    B = sys.B
    total = 0.0
    T = schedule.horizon
    for t in range(T - 1):
        d = policy_traj.u[t] - sol.K[t] @ policy_traj.x[t]
        G = schedule.R[t] + B.T @ sol.P[t + 1] @ B
        total += float(d @ G @ d)
    return total


def expected_regret_mc(
    sys: LinearSystem,
    schedule: CostSchedule,
    policy,
    dist: DisturbanceModel,
    trials: int,
    master_seed: int,
) -> RegretReport:
    """Sample mean and standard error of regret over disturbance draws.

    ``policy`` is a callable (sys, schedule, w) -> Trajectory. Trials whose
    simulation overflows are excluded from the averages and counted in
    ``excluded_trials``; trial substreams derive deterministically from the
    master seed, so the result does not depend on evaluation order.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    T = schedule.horizon
    regrets = []
    costs_policy = []
    costs_opt = []
    excluded = 0
    for trial in range(trials):
        rng = generator(master_seed, "mc", "disturbance", trial)
        w = dist.sample(rng, T - 1)
        try:
            traj = policy(sys, schedule, w)
        except TrajectoryOverflowError:
            excluded += 1
            continue
        opt = clairvoyant_policy(sys, schedule, w)
        regrets.append(traj.cost - opt.cost)
        costs_policy.append(traj.cost)
        costs_opt.append(opt.cost)
    if not regrets:
        raise AllTrialsFailedError(f"all {trials} trials overflowed")
    arr = np.asarray(regrets)
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return RegretReport(
        regret=float(arr.mean()),
        cost_policy=float(np.mean(costs_policy)),
        cost_optimal=float(np.mean(costs_opt)),
        trials=arr.size,
        stderr=stderr,
        excluded_trials=excluded,
    )


def phi_metric(
    sys: LinearSystem,
    schedule_spec,
    T: int,
    W: int,
    trials: int,
    master_seed: int,
    dist: DisturbanceModel | None = None,
    poles=None,
    baseline_bounds: CostBounds | None = None,
) -> float:
    """Mean paired regret gap: baseline regret minus tracking-policy regret.

    ``schedule_spec`` is either a fixed CostSchedule reused across trials or
    a CostBounds object from which a fresh schedule is drawn per trial. Both
    policies run on identical schedule and disturbance realizations; trials
    where either one overflows are dropped for both. Disturbance-free
    regrets are evaluated through the control-deviation identity, which is
    exact there and immune to cancellation between near-equal costs.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    K_track = place_poles_single_input(
        sys, poles if poles is not None else default_tracking_poles(sys.n)
    )
    cfg = PolicyConfig(W, K_track)
    fixed_schedule = isinstance(schedule_spec, CostSchedule)
    if baseline_bounds is not None:
        bounds = baseline_bounds
    elif fixed_schedule:
        ext = sequence_extrema(schedule_spec)
        bounds = CostBounds(ext.Qbar_min, ext.Qbar_max, ext.Rbar_min, ext.Rbar_max)
    else:
        bounds = schedule_spec
    P_max = solve_dare(sys.A, sys.B, bounds.Q_max, bounds.R_max)
    gaps = []
    for trial in range(trials):
        if fixed_schedule:
            schedule = schedule_spec
        else:
            rng = generator(master_seed, "phi", "schedule", T, W, trial)
            schedule = random_uniform_schedule(schedule_spec, T, rng)
        w = None
        if dist is not None:
            rng_w = generator(master_seed, "phi", "disturbance", T, W, trial)
            w = dist.sample(rng_w, T - 1)
        planner = FrozenPlanner(sys, schedule)
        try:
            ours = prediction_tracking_policy(sys, schedule, cfg, w, planner=planner)
            base = mpc_baseline_policy(sys, schedule, bounds, W, w, P_max=P_max)
        except TrajectoryOverflowError:
            continue
        if w is None:
            true_sol = planner.solution(T - 1)
            gaps.append(
                regret_via_control_deviation(base, sys, schedule, solution=true_sol)
                - regret_via_control_deviation(ours, sys, schedule, solution=true_sol)
            )
        else:
            opt = clairvoyant_policy(sys, schedule, w)
            gaps.append((base.cost - opt.cost) - (ours.cost - opt.cost))
    if not gaps:
        raise AllTrialsFailedError(f"all {trials} trials overflowed")
    return float(np.mean(gaps))
