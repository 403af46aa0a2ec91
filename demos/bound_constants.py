# Evaluating the closed-form regret upper bound: instance constants, the
# exact geometric decay in the preview length, and sublinear growth in the
# horizon.

import numpy as np

from preview_lqr import (
    LinearSystem,
    PolicyConfig,
    compute_bound_constants,
    inverted_pendulum,
    place_poles_single_input,
    prediction_tracking_policy,
    random_uniform_schedule,
    regret_upper_bound,
    regret_via_control_deviation,
    sufficient_condition_check,
)
from preview_lqr.costs import CostSchedule
from preview_lqr.experiments import DEFAULT_POLES, pendulum_cost_bounds
from preview_lqr.policies import FrozenPlanner


def pendulum_section():
    print("-" * 72)
    print("Pendulum instance: every constant of the bound, and the bound itself")
    print("-" * 72)
    sys_ = inverted_pendulum()
    bounds = pendulum_cost_bounds()
    T, W = 60, 5
    schedule = random_uniform_schedule(bounds, T, np.random.default_rng(1))
    K = place_poles_single_input(sys_, DEFAULT_POLES)
    planner = FrozenPlanner(sys_, schedule)
    # One call evaluates a list of preview lengths; here it is one.
    (constants,) = compute_bound_constants(planner, K, [W])

    for name in ("D", "C_K", "C", "eta", "alpha", "beta", "gamma",
                 "alpha1", "alpha2", "C_f", "q", "epsilon"):
        print(f"  {name:<8} = {getattr(constants, name):.6g}")

    traj = prediction_tracking_policy(sys_, schedule, PolicyConfig(W, K), planner=planner)
    realized = regret_via_control_deviation(
        traj, sys_, schedule, solution=planner.solution()
    )
    bound = regret_upper_bound(constants, T, W, sys_.x0)
    print(f"\n  realized regret = {realized:.6e}")
    print(f"  upper bound     = {bound:.6e}")
    print(f"  beats the baseline's bound: {sufficient_condition_check(constants, bounds, sys_)}")

    print("\n  the only W dependence is the leading gamma^(2W) factor:")
    for W_probe in (W, W + 1, W + 2):
        b = regret_upper_bound(constants, T, W_probe, sys_.x0)
        print(f"    W={W_probe}: bound = {b:.6e}  (ratio to previous = gamma^2 = {constants.gamma**2:.12f})")


def sublinearity_section():
    print("-" * 72)
    print("Scalar instance: the bound saturates, so regret per step vanishes")
    print("-" * 72)
    sys_ = LinearSystem([[0.5]], [[1.0]], [1.0])
    T0 = 50
    schedule = CostSchedule(
        tuple(np.eye(1) for _ in range(T0)), tuple(np.eye(1) for _ in range(T0 - 1))
    )
    (constants,) = compute_bound_constants(FrozenPlanner(sys_, schedule), [[0.0]], [0])
    for T in (100, 1000, 10000):
        b = regret_upper_bound(constants, T, 0, sys_.x0)
        print(f"  T = {T:>6}: bound = {b:.9e}, bound / T = {b / T:.3e}")


def main():
    pendulum_section()
    print()
    sublinearity_section()


if __name__ == "__main__":
    main()
