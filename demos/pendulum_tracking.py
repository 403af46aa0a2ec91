# Prediction tracking on the inverted pendulum benchmark: how the regret
# of the online policy falls as more of the cost schedule is previewed.

import numpy as np

from preview_lqr import (
    FrozenPlanner,
    clairvoyant_policy,
    inverted_pendulum,
    paired_regrets,
    place_poles_single_input,
    random_uniform_schedule,
    solve_dare,
)
from preview_lqr.experiments import DEFAULT_POLES, pendulum_cost_bounds


def main():
    print("=" * 72)
    print("Online LQR on the inverted pendulum: regret versus preview length")
    print("=" * 72)

    sys_ = inverted_pendulum()
    bounds = pendulum_cost_bounds()
    T = 120
    schedule = random_uniform_schedule(bounds, T, np.random.default_rng(0))
    K_track = place_poles_single_input(sys_, DEFAULT_POLES)

    print(f"\nhorizon T = {T}, state costs in [8e3, 3.2e4] I, control costs in [2e3, 9.8e4]")
    print(f"tracking gain poles: {DEFAULT_POLES}")

    opt = clairvoyant_policy(sys_, schedule)
    print(f"clairvoyant optimal cost: {opt.cost:.6e}")

    planner = FrozenPlanner(sys_, schedule)
    P_max = solve_dare(sys_.A, sys_.B, bounds.Q_max, bounds.R_max)
    print(f"\n{'W':>4}  {'regret (tracking)':>18}  {'regret (baseline)':>18}  {'gap':>12}")
    for W in (0, 2, 4, 6, 8, 12, 20):
        (pair,) = paired_regrets(planner, K_track, [W], P_max)
        if isinstance(pair, Exception):
            raise pair
        r_ours, r_base = pair
        print(f"{W:>4}  {r_ours:>18.6e}  {r_base:>18.6e}  {r_base - r_ours:>12.3e}")

    print("\nThe tracking policy's regret collapses geometrically with W; the")
    print("baseline pays for its worst-case terminal weight until the window")
    print("covers most of the horizon.")


if __name__ == "__main__":
    main()
