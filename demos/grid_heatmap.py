# A small benchmark grid end to end: paired trials over (T, W), CSV rows,
# and the diverging heatmap of the regret gap between the baseline and the
# tracking policy.

import os

from preview_lqr import ExperimentConfig, emit_csv, emit_heatmap_svg, run_grid

# The grid behind output/pendulum.csv; the test suite checks that the CSV
# it gives is the committed one, byte for byte.
CONFIG = ExperimentConfig(
    scenario="pendulum",
    t_min=20,
    t_max=100,
    t_step=20,
    w_min=0,
    w_max=8,
    trials=5,
    master_seed=3,
)


def main():
    out_dir = os.path.join(os.path.dirname(__file__), "output")
    os.makedirs(out_dir, exist_ok=True)

    print(f"running {len(CONFIG.t_values) * len(CONFIG.w_values)} cells, "
          f"{CONFIG.trials} paired trials each ...")
    result = run_grid(CONFIG, workers=2)

    csv_path = os.path.join(out_dir, "pendulum.csv")
    svg_path = os.path.join(out_dir, "pendulum.svg")
    emit_csv(result, csv_path)
    emit_heatmap_svg(result, "phi_mean", svg_path)

    print(f"wrote {csv_path} and {svg_path}")
    print(f"\n{'T':>5} {'W':>3} {'phi_mean':>13} {'regret_ours':>13} {'regret_mpc':>13}")
    for row in sorted(result.rows, key=lambda r: (r.T, r.W))[:12]:
        print(f"{row.T:>5} {row.W:>3} {row.phi_mean:>13.4e} "
              f"{row.regret_ours_mean:>13.4e} {row.regret_mpc_mean:>13.4e}")
    print("... (full table in the CSV)")


if __name__ == "__main__":
    main()
