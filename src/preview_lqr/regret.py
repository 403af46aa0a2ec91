"""Cost and dynamic-regret evaluation.

Dynamic regret is the cost of a policy's trajectory minus the cost of the
clairvoyant trajectory on the same instance. A quadratic-form identity
rewrites the disturbance-free regret as a weighted sum of deviations from
the optimal feedback along the policy's own states, which gives an
independent evaluation route. ``paired_regrets`` measures the tracking
policy and the baseline on one realization for every paired comparison.
Monte-Carlo aggregation over disturbance draws uses deterministic per-trial
substreams.
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
    mpc_gains,
    validate_policy_config,
)
from .riccati import (
    Trajectory,
    TrajectoryOverflowError,
    affine_terms,
    backward_riccati,
    simulate,
    solve_dare,
)
from .seeding import generator
from .systems import DisturbanceModel, LinearSystem, place_poles_single_input


# Bytes of plan feedforward, (T-1, trials, T-1, m) floats, that
# ``expected_regret_mc`` holds per block of trials: 26 trials at T = 200, m = 1.
MC_BLOCK_BYTES = 8 * 2**20


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
    d = policy_traj.u - np.einsum("tmn,tn->tm", sol.K, policy_traj.x[:-1])
    G = schedule.R + B.T @ sol.P[1:] @ B
    return float(np.einsum("ti,tij,tj->", d, G, d))


def expected_regret_mc(
    planner: FrozenPlanner,
    cfg: PolicyConfig,
    dist: DisturbanceModel,
    trials: int,
    master_seed: int,
) -> RegretReport:
    """Sample mean and standard error of the tracking policy's regret over disturbance draws.

    The tracker runs with ``cfg`` on the planner's instance against the
    clairvoyant comparator on the planner's true pass. Trial substreams derive
    deterministically from the master seed, so the result does not depend on
    evaluation order. Up to ``MC_BLOCK_BYTES`` of feedforward at a time, a
    block of trials runs as one ``plan_points`` call, one comparator
    ``affine_terms`` call and one ``simulate`` batch, and each trial's costs
    are those of its own tracker and ``clairvoyant_policy`` runs, bit for bit.
    A trial whose tracker or comparator overflows is excluded from the
    averages and counted in ``excluded_trials``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    sys, schedule, T = planner.sys, planner.schedule, planner.T
    validate_policy_config(cfg, sys, T)
    sol = planner.solution(T - 1)
    # One simulate batch: the trackers, u = K_track (x - X) + U, then the
    # comparators, u = K x + k with r = +0.0, which is exact.
    L = np.stack([np.broadcast_to(cfg.K_track, sol.K.shape), sol.K])[:, None]
    block = max(1, MC_BLOCK_BYTES // (8 * (T - 1) ** 2 * sys.m))
    pairs = []
    for start in range(0, trials, block):
        w = np.stack([
            dist.sample(generator(master_seed, "mc", "disturbance", t), T - 1)
            for t in range(start, min(start + block, trials))
        ])
        X, U = planner.plan_points(cfg.W, w)
        k = affine_terms(sys, sol.P[None], sol.K[None], schedule.R, w, [0], [T - 2])[:, :, 0]
        r, l = np.stack([X, np.zeros_like(X)]), np.stack([U, k.swapaxes(0, 1)])
        runs = simulate(sys, schedule, L, sys.x0, w, r, l)
        pairs += zip(runs[: len(w)], runs[len(w) :])
    done = [pair for pair in pairs if all(isinstance(run, Trajectory) for run in pair)]
    if not done:
        raise AllTrialsFailedError(f"all {trials} trials overflowed")
    costs_policy, costs_opt = (np.array([run.cost for run in runs]) for runs in zip(*done))
    arr = costs_policy - costs_opt
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return RegretReport(
        regret=float(arr.mean()),
        cost_policy=float(costs_policy.mean()),
        cost_optimal=float(costs_opt.mean()),
        trials=arr.size,
        stderr=stderr,
        excluded_trials=trials - arr.size,
    )


# The failures paired_regrets returns per preview length.
PAIR_ERRORS = (ValueError, TrajectoryOverflowError, np.linalg.LinAlgError)


def paired_regrets(planner: FrozenPlanner, K_track, Ws, P_max, w=None, opt_cost=None) -> list:
    """Per preview length Ws[j], (tracking regret, baseline regret) or the error met.

    Both policies run on the planner's instance with disturbances ``w``, the
    baseline with terminal value ``P_max``, all in one ``simulate`` batch.
    Without disturbances the regrets come from the control-deviation identity
    on the planner's true pass, exact there and a sum of nonnegative terms, so
    no cancellation drowns a tiny regret; with them, a regret is the cost above
    the comparator's, ``opt_cost`` when given. A W's error is the first of
    ``PAIR_ERRORS`` met in its tracker, baseline, then regret. A ``w`` of the
    wrong shape raises.
    """
    sys, schedule, T = planner.sys, planner.schedule, planner.T
    if w is not None and np.shape(w) != (T - 1, sys.n):
        raise ValueError(f"w must have shape {(T - 1, sys.n)}, got {np.shape(w)}")
    # Per W, the (L, r, l) of its tracker and baseline runs, up to the first
    # error. The baseline's r = +0.0 and l = -0.0 change no bits of its loop.
    runs = []
    for W in Ws:
        runs.append([])
        try:
            cfg = PolicyConfig(W, K_track)
            validate_policy_config(cfg, sys, T)
            K = np.broadcast_to(cfg.K_track, (T - 1, sys.m, sys.n))
            runs[-1].append((K, *planner.plan_points(cfg.W, w)))
            gains = mpc_gains(sys, schedule, cfg.W, P_max)
            runs[-1].append((gains, np.zeros((T - 1, sys.n)), np.full((T - 1, sys.m), -0.0)))
        except PAIR_ERRORS as err:
            runs[-1].append(err)
    inputs = [run for pair in runs for run in pair if isinstance(run, tuple)]
    if inputs:
        L, r, l = map(np.stack, zip(*inputs))
        done = iter(simulate(sys, schedule, L, sys.x0, w, r, l))
    out = []
    for pair in runs:
        pair = [next(done) if isinstance(run, tuple) else run for run in pair]
        errors = [run for run in pair if isinstance(run, Exception)]
        if errors:
            out.append(errors[0])
            continue
        true_sol = planner.solution(T - 1)
        if w is None:
            out.append(tuple(regret_via_control_deviation(run, sys, schedule, true_sol) for run in pair))
            continue
        try:
            if opt_cost is None:
                opt_cost = clairvoyant_policy(sys, schedule, w, solution=true_sol).cost
            out.append((pair[0].cost - opt_cost, pair[1].cost - opt_cost))
        except PAIR_ERRORS as err:
            out.append(err)
    return out


def phi_metric(
    sys: LinearSystem,
    schedule_spec,
    T: int,
    W: int,
    trials: int,
    master_seed: int,
    dist: DisturbanceModel | None = None,
    poles=None,
) -> float:
    """Mean paired regret gap: baseline regret minus tracking-policy regret.

    ``schedule_spec`` is either a fixed CostSchedule reused across trials or
    a CostBounds object from which a fresh schedule is drawn per trial. Both
    policies run on identical schedule and disturbance realizations, and
    ``paired_regrets`` measures them; trials where either one overflows are
    dropped for both.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    K_track = place_poles_single_input(
        sys, poles if poles is not None else default_tracking_poles(sys.n)
    )
    fixed_schedule = isinstance(schedule_spec, CostSchedule)
    if fixed_schedule:
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
        (pair,) = paired_regrets(FrozenPlanner(sys, schedule), K_track, [W], P_max, w)
        if isinstance(pair, TrajectoryOverflowError):
            continue
        if isinstance(pair, Exception):
            raise pair
        gaps.append(pair[1] - pair[0])
    if not gaps:
        raise AllTrialsFailedError(f"all {trials} trials overflowed")
    return float(np.mean(gaps))
