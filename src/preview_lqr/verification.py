"""Self-contained verification suites: oracle equivalence and the
analytical properties the regret bound rests on.

Each suite runs on seeded random instances and reports pass/fail with the
worst observed slack. The CLI's ``verify`` subcommand and the acceptance
tests both call these functions, so there is a single source of truth for
what "verified" means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundConstants, _batch_spectral_norm, compute_bound_constants, solve_dare
from .costs import CostBounds, CostSchedule, random_uniform_schedule
from .policies import (
    FrozenPlanner,
    PolicyConfig,
    clairvoyant_policy,
    prediction_tracking_policy,
)
from .regret import regret_via_control_deviation
from .riccati import RiccatiSolution, Trajectory, _only, backward_riccati, brute_force_lqr_oracle
from .riccati import frozen_steps, rollout
from .seeding import generator
from .systems import LinearSystem, place_poles_single_input, random_controllable_system


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


def _random_pd(rng: np.random.Generator, n: int, floor: float = 0.3) -> np.ndarray:
    M = rng.standard_normal((n, n))
    return M @ M.T / n + floor * np.eye(n)


def _random_oracle_problem(rng: np.random.Generator):
    n = int(rng.integers(1, 4))
    T = int(rng.integers(2, 9))
    sys_ = random_controllable_system(n, 1, -1.5, 1.5, rng, x0=rng.standard_normal(n))
    Q = tuple(_random_pd(rng, n, floor=0.1) for _ in range(T))
    R = tuple(np.array([[0.2 + float(rng.random())]]) for _ in range(T - 1))
    return sys_, CostSchedule(Q, R)


def oracle_equivalence(seed: int = 0, instances: int = 50, tol: float = 1e-8) -> CheckResult:
    """Backward pass plus rollout against the stacked-QP oracle, no noise."""
    worst = 0.0
    rng = generator(seed, "verify", "oracle")
    for _ in range(instances):
        sys_, schedule = _random_oracle_problem(rng)
        sol = backward_riccati(sys_, schedule)
        mine = rollout(sys_, sol, sys_.x0)
        ref = brute_force_lqr_oracle(sys_, schedule)
        worst = max(worst, _rel_err(mine.u, ref.u), _rel_err(mine.cost, ref.cost))
    return CheckResult(
        "oracle equivalence",
        worst <= tol,
        f"max relative control/cost error {worst:.3e} over {instances} instances",
    )


def affine_oracle_equivalence(seed: int = 0, instances: int = 50, tol: float = 1e-8) -> CheckResult:
    """The clairvoyant comparator against the oracle with known disturbances."""
    worst = 0.0
    rng = generator(seed, "verify", "affine-oracle")
    for _ in range(instances):
        sys_, schedule = _random_oracle_problem(rng)
        T = schedule.horizon
        w = rng.standard_normal((T - 1, sys_.n))
        mine = clairvoyant_policy(sys_, schedule, w)
        ref = brute_force_lqr_oracle(sys_, schedule, w)
        worst = max(worst, _rel_err(mine.u, ref.u), _rel_err(mine.cost, ref.cost))
    return CheckResult(
        "affine oracle equivalence",
        worst <= tol,
        f"max relative control/cost error {worst:.3e} over {instances} instances",
    )


def dare_fixed_point_check(tol: float = 1e-10) -> CheckResult:
    """Scalar fixed point with a hand-derived closed form."""
    P = float(solve_dare(1.0, 1.0, 1.0, 1.0)[0, 0])
    expected = (1.0 + np.sqrt(5.0)) / 2.0
    err = abs(P - expected)
    return CheckResult(
        "scalar fixed-point value",
        err <= tol,
        f"|P - (1+sqrt(5))/2| = {err:.3e}",
    )


@dataclass
class _Instance:
    sys: LinearSystem
    schedule: CostSchedule
    K_track: np.ndarray
    W: int
    planner: FrozenPlanner
    P: np.ndarray
    constants: BoundConstants
    true_sol: RiccatiSolution
    traj: Trajectory
    opt: Trajectory


def _random_bounded_instance(rng: np.random.Generator) -> _Instance:
    n = int(rng.integers(2, 5))
    T = int(rng.integers(10, 41))
    W = int(rng.integers(0, min(5, T - 1)))
    sys_ = random_controllable_system(
        n, 1, -1.2, 1.2, rng, x0=rng.standard_normal(n)
    )
    Q_min = _random_pd(rng, n, floor=0.5)
    Q_max = Q_min + _random_pd(rng, n, floor=0.2)
    r_min = 0.4 + float(rng.random())
    bounds = CostBounds(
        Q_min, Q_max, np.array([[r_min]]), np.array([[r_min + 1.0 + float(rng.random())]])
    )
    schedule = random_uniform_schedule(bounds, T, rng)
    poles = np.linspace(0.02, 0.3, n) * (0.5 + 0.5 * float(rng.random()))
    K_track = place_poles_single_input(sys_, poles)
    planner = FrozenPlanner(sys_, schedule)
    # Zero preview takes alpha over every frozen pass, so one constants
    # object serves all the property checks on this instance.
    constants = _only(compute_bound_constants(planner, K_track, [0]))
    # The tracker and the comparator on the planner's true pass, run once
    # for the state-deviation and regret-identity suites.
    true_sol = planner.solution()
    traj = prediction_tracking_policy(sys_, schedule, PolicyConfig(W, K_track), planner=planner)
    opt = clairvoyant_policy(sys_, schedule, solution=true_sol)
    P = frozen_values(sys_, schedule)  # the suites read every pass's value matrices
    return _Instance(sys_, schedule, K_track, W, planner, P, constants, true_sol, traj, opt)


def frozen_values(sys_: LinearSystem, schedule: CostSchedule) -> np.ndarray:
    """Every frozen pass's value matrices (T, T, n, n), from the sweep's own
    steps: a view of the step-major (T, n, n, T) stack they fill."""
    T = schedule.horizon
    P = np.empty((T, sys_.n, sys_.n, T))
    for i, P_i, _ in frozen_steps(sys_, schedule):
        P[i] = P_i
    return P.transpose(3, 0, 1, 2)


def _instances(seed: int, count: int):
    rng = generator(seed, "verify", "instances")
    return [_random_bounded_instance(rng) for _ in range(count)]


def value_sandwich_suite(instances, tol: float = 1e-8) -> CheckResult:
    """Every frozen-pass value matrix sits between the cost extrema floor
    and the fixed-point ceiling in the Loewner order, up to tol relative to
    max(1, ||Pbar||_2), room for the round-off of Pbar and of the passes:
    ``solve_dare`` returns Pbar to round-off times the Riccati equation's
    conditioning; at verify seeds 0-7 and 2479536241 the slack is above -1e-15."""
    worst = np.inf
    for inst in instances:
        c = inst.constants
        P = inst.P
        scale = max(1.0, float(np.linalg.norm(c.Pbar_max, 2)))
        for diffs in (P - c.Qbar_min, c.Pbar_max - P):
            diffs = 0.5 * (diffs + np.swapaxes(diffs, -1, -2))
            worst = min(worst, float(np.linalg.eigvalsh(diffs)[..., 0].min()) / scale)
    return CheckResult(
        "value matrix sandwich",
        worst >= -tol,
        f"min relative eigenvalue slack {worst:.3e}",
    )


def _slack(terms) -> float:
    """min of bound - ||M||_2 over (bound, M) in order, each 2-norm that of
    ``np.linalg.norm``, bit for bit, from one stacked SVD per shape."""
    norms = {}
    for shape in {M.shape for _, M in terms}:
        at = [j for j, (_, M) in enumerate(terms) if M.shape == shape]
        norms.update(zip(at, _batch_spectral_norm(np.stack([terms[j][1] for j in at])).tolist()))
    return min([np.inf] + [bound - norms[j] for j, (bound, _) in enumerate(terms)])


def pass_perturbation_suite(instances, samples: int = 25, tol: float = 1e-9) -> CheckResult:
    """Freezing later changes value matrices and gains geometrically little."""
    terms = []
    rng = generator(1234, "verify", "perturbation-samples")
    for inst in instances:
        T = inst.schedule.horizon
        c = inst.constants
        lamP = float(np.linalg.eigvalsh(c.Pbar_max)[-1])
        lamQ = float(np.linalg.eigvalsh(c.Qbar_min)[0])
        P, K = inst.P, inst.planner.K
        for _ in range(samples):
            t0 = int(rng.integers(0, T))
            t = int(rng.integers(0, t0 + 1))
            i = int(rng.integers(0, t + 1))
            terms.append(((lamP**2 / lamQ) * c.gamma ** (t + 1 - i), P[t, i] - P[t0, i]))
            if i <= T - 2:
                terms.append((c.C_K * c.gamma ** (t - i), K[t, i] - K[t0, i]))
    worst = _slack(terms)
    return CheckResult(
        "frozen-pass perturbation decay",
        worst >= -tol,
        f"min slack {worst:.3e}",
    )


def closed_loop_decay_suite(instances, samples: int = 25, tol: float = 1e-9) -> CheckResult:
    """Products of frozen-gain closed-loop matrices decay like C eta^len."""
    terms = []
    rng = generator(4321, "verify", "decay-samples")
    for inst in instances:
        T = inst.schedule.horizon
        A, B = inst.sys.A, inst.sys.B
        c = inst.constants
        K = inst.planner.K
        for _ in range(samples):
            t = int(rng.integers(0, T - 1))
            t1 = int(rng.integers(0, t + 1))
            t0 = int(rng.integers(0, t1 + 1))
            M = np.eye(inst.sys.n)
            for i in range(t0, t1 + 1):
                M = (A + B @ K[t, i]) @ M
            terms.append((c.C * c.eta ** (t1 - t0 + 1), M))
    worst = _slack(terms)
    return CheckResult(
        "closed-loop product decay",
        worst >= -tol,
        f"min slack {worst:.3e}",
    )


def state_deviation_suite(instances, tol: float = 1e-9) -> CheckResult:
    """Realized and predicted states stay within the analytic envelopes of
    the optimal trajectory on disturbance-free runs."""
    worst = np.inf
    for inst in instances:
        T = inst.schedule.horizon
        c = inst.constants
        W = inst.W
        g, e, q, Cf = c.gamma, c.eta, c.q, c.C_f
        x0_norm = float(np.linalg.norm(inst.sys.x0))
        traj, opt = inst.traj, inst.opt
        pref = c.C**2 * c.C_K * x0_norm * g**W / (g - 1.0)
        # Row t is entry t of the plan made at time t, as the planner stores it.
        plan_x = np.vstack([inst.planner.plan_points(W)[0], inst.planner.X[T - 1, T - 1]])
        for t in range(1, T):
            pred_gap = float(np.linalg.norm(plan_x[t] - opt.x[t]))
            pred_bound = pref * (e ** (t - 1) * g * (g**t - 1.0))
            worst = min(worst, pred_bound - pred_gap)
            state_gap = float(np.linalg.norm(traj.x[t] - opt.x[t]))
            transient = Cf * (
                (e * g / q) * ((q ** (t - 1) - (e * g) ** (t - 1)) / (q - e * g))
                - (e / q) * ((q ** (t - 1) - e ** (t - 1)) / (q - e))
            )
            state_bound = pref * (e ** (t - 1) * g * (g**t - 1.0) + transient)
            worst = min(worst, state_bound - state_gap)
    return CheckResult(
        "state deviation envelopes",
        worst >= -tol,
        f"min slack {worst:.3e}",
    )


def regret_identity_suite(instances, tol: float = 1e-6) -> CheckResult:
    """Direct regret agrees with the control-deviation identity."""
    worst = 0.0
    for inst in instances:
        direct = inst.traj.cost - inst.opt.cost
        ident = regret_via_control_deviation(inst.traj, inst.sys, inst.schedule, inst.true_sol)
        worst = max(worst, abs(direct - ident) / max(1.0, abs(direct)))
    return CheckResult(
        "regret identity",
        worst <= tol,
        f"max relative gap {worst:.3e}",
    )


def squares_inequality_check(seed: int = 0, samples: int = 500) -> CheckResult:
    """(a1 + a2 + a3)^2 <= (10/3)(a1^2 + a2^2 + a3^2) on random triples."""
    rng = generator(seed, "verify", "squares")
    a = rng.standard_normal((samples, 3)) * rng.uniform(0.1, 100.0, size=(samples, 1))
    lhs = a.sum(axis=1) ** 2
    rhs = (10.0 / 3.0) * (a**2).sum(axis=1)
    worst = float((rhs - lhs).min())
    return CheckResult(
        "sum-of-squares inequality",
        worst >= -1e-9,
        f"min slack {worst:.3e}",
    )


def run_all(seed: int = 0, instances: int = 20, oracle_instances: int = 50):
    """Every verification suite, in a fixed order."""
    results = [
        oracle_equivalence(seed, oracle_instances),
        affine_oracle_equivalence(seed, oracle_instances),
        dare_fixed_point_check(),
    ]
    insts = _instances(seed, instances)
    results.extend(
        [
            value_sandwich_suite(insts),
            pass_perturbation_suite(insts),
            closed_loop_decay_suite(insts),
            state_deviation_suite(insts),
            regret_identity_suite(insts),
            squares_inequality_check(seed),
        ]
    )
    return results
