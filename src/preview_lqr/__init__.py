"""Online LQR with previewed time-varying costs.

A library for the prediction-tracking control policy under partially
revealed quadratic cost schedules, together with a clairvoyant comparator,
a receding-horizon baseline, exact dynamic-regret measurement, a numerical
evaluator of the closed-form regret upper bound and its constants, and a
deterministic Monte-Carlo benchmark harness.
"""

from .bounds import (
    BoundConstants,
    BoundReport,
    DegenerateConstantsError,
    ScalingReport,
    compute_bound_constants,
    geometric_sum,
    make_bound_report,
    regret_upper_bound,
    scaling_certificate,
    sufficient_condition_check,
)
from .costs import (
    CostBounds,
    CostExtrema,
    CostSchedule,
    IncomparableScheduleError,
    frozen_schedule,
    loewner_leq,
    random_uniform_schedule,
    sequence_extrema,
    verify_bounds,
)
from .experiments import (
    ExperimentConfig,
    GridResult,
    GridRow,
    emit_csv,
    emit_heatmap_svg,
    parse_csv,
    pendulum_cost_bounds,
    run_grid,
)
from .policies import (
    FrozenPlanner,
    PolicyConfig,
    clairvoyant_policy,
    default_tracking_poles,
    mpc_baseline_policy,
    prediction_tracking_policy,
)
from .regret import (
    AllTrialsFailedError,
    RegretReport,
    expected_regret_mc,
    phi_metric,
    regret,
    regret_via_control_deviation,
)
from .riccati import (
    DareConvergenceError,
    OracleSizeError,
    RiccatiSolution,
    Trajectory,
    TrajectoryOverflowError,
    backward_riccati,
    brute_force_lqr_oracle,
    riccati_step,
    rollout,
    simulate,
    solve_dare,
)
from .systems import (
    DisturbanceModel,
    GenerationBudgetError,
    LinearSystem,
    controllability_rank,
    inverted_pendulum,
    place_poles_single_input,
    random_controllable_system,
    spectral_radius,
)

__all__ = [name for name in dir() if not name.startswith("_")]
