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

from .costs import CostSchedule
from .policies import (
    FrozenPlanner,
    PolicyConfig,
    PreviewLengthError,
    UnstableTrackingError,
    baseline_law,
    clairvoyant_law,
    tracking_law,
)
from .riccati import Trajectory, TrajectoryOverflowError, backward_riccati, simulate
from .seeding import generator
from .systems import DisturbanceModel, LinearSystem


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


def standard_error(values) -> float:
    """Standard error of the mean, std(ddof=1) / sqrt(n), or 0.0 for one value.

    Where the squares in std overflow, about |values| > 1e154, the values are
    scaled by their largest magnitude first; elsewhere that scaling would
    move bits, so it is skipped.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return 0.0
    with np.errstate(over="ignore"):
        err = values.std(ddof=1) / np.sqrt(values.size)
        if not np.isfinite(err):
            scale = np.abs(values).max()
            err = (values / scale).std(ddof=1) / np.sqrt(values.size) * scale
    return float(err)


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
    sys: LinearSystem, schedule: CostSchedule, cfg: PolicyConfig, dist: DisturbanceModel, trials: int,
    master_seed: int,
):
    """Sample mean and standard error of the tracking policy's regret over disturbance draws.

    The tracker runs with ``cfg`` against the clairvoyant comparator on the
    true pass. Each trial draws w from its own substream of the master seed.
    Up to ``MC_BLOCK_BYTES`` of feedforward at a time, a block of draws goes
    into one ``FrozenPlanner``, whose sweep streams their plans at ``cfg.W``,
    and the block's stacked ``tracking_law`` and ``clairvoyant_law`` run as
    one ``simulate`` batch, each trial bit for bit as its own runs. A trial
    whose tracker or comparator overflows is excluded and counted. Returns
    the ``RegretReport`` and the last block's planner, whose gains, alpha
    maxima and true pass give the bound constants without another sweep.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    T = schedule.horizon
    block = max(1, MC_BLOCK_BYTES // (8 * (T - 1) ** 2 * sys.m))
    pairs = []
    for start in range(0, trials, block):
        w = np.stack([
            dist.sample(generator(master_seed, "mc", "disturbance", t), T - 1)
            for t in range(start, min(start + block, trials))
        ])
        planner = FrozenPlanner(sys, schedule, w, [cfg.W])
        laws = tracking_law(planner, cfg), clairvoyant_law(sys, planner.solution(), w)
        L, r, l = map(np.stack, zip(*laws))
        runs = simulate(sys, schedule, L, sys.x0, w, r, l)
        pairs += zip(runs[: len(w)], runs[len(w) :])
    done = [pair for pair in pairs if all(isinstance(run, Trajectory) for run in pair)]
    if not done:
        raise AllTrialsFailedError(f"all {trials} trials overflowed")
    costs_policy, costs_opt = (np.array([run.cost for run in runs]) for runs in zip(*done))
    arr = costs_policy - costs_opt
    report = RegretReport(
        regret=float(arr.mean()),
        cost_policy=float(costs_policy.mean()),
        cost_optimal=float(costs_opt.mean()),
        trials=arr.size,
        stderr=standard_error(arr),
        excluded_trials=trials - arr.size,
    )
    return report, planner


# The numerical failures of a policy's runs.
NUMERICAL_ERRORS = (UnstableTrackingError, TrajectoryOverflowError, np.linalg.LinAlgError)
# The failures paired_regrets returns per preview length; any other raises.
PAIR_ERRORS = (PreviewLengthError,) + NUMERICAL_ERRORS


def paired_regrets(planner: FrozenPlanner, K_track, Ws, P_max) -> list:
    """Per preview length Ws[j], (tracking regret, baseline regret) or the error met.

    Both policies run on the planner's instance with its disturbances, planned
    at every W of ``Ws``, all in one ``simulate`` batch; one ``baseline_law``
    call, with terminal value ``P_max``, builds every W's baseline.
    Without disturbances the regrets come from the control-deviation identity
    on the planner's true pass, exact there and a sum of nonnegative terms, so
    no cancellation drowns a tiny regret; with them, a regret is the cost above
    the comparator's, which joins the batch once for every W. A W's error is
    the first of ``PAIR_ERRORS`` met in its tracker, the baseline call (whose
    error is each W's it serves), then regret. A planner of many trials raises.
    """
    sys, schedule, T, w = planner.sys, planner.schedule, planner.T, planner.w
    if w is not None and w.shape != (T - 1, sys.n):
        raise ValueError(f"w must have shape {(T - 1, sys.n)}, got {w.shape}")
    # Per W the laws of its tracker and baseline or the first error met; the
    # comparator's law, when there are disturbances, comes last.
    runs, built = [], {}
    for W in Ws:
        try:
            runs.append([tracking_law(planner, PolicyConfig(W, K_track))])
            built[len(runs) - 1] = W
        except PAIR_ERRORS as err:
            runs.append([err])
    # One baseline call serves every W whose tracker law was built.
    try:
        for j, law in zip(built, baseline_law(sys, schedule, list(built.values()), P_max)):
            runs[j].append(law)
    except PAIR_ERRORS as err:
        for j in built:
            runs[j] = [err]
    if w is not None:
        try:
            runs.append([clairvoyant_law(sys, planner.solution(), w)])
        except PAIR_ERRORS as err:
            runs.append([err])
    laws = [run for pair in runs for run in pair if isinstance(run, tuple)]
    if laws:
        L, r, l = map(np.stack, zip(*laws))
        done = iter(simulate(sys, schedule, L, sys.x0, w, r, l))
    runs = [[next(done) if isinstance(run, tuple) else run for run in pair] for pair in runs]
    opt = runs.pop()[0] if w is not None else None
    out = []
    for pair in runs:
        errors = [run for run in (*pair, opt) if isinstance(run, Exception)]
        if errors:
            out.append(errors[0])
        elif w is None:
            true_sol = planner.solution()
            out.append(tuple(regret_via_control_deviation(run, sys, schedule, true_sol) for run in pair))
        else:
            out.append((pair[0].cost - opt.cost, pair[1].cost - opt.cost))
    return out
