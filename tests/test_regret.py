import numpy as np
import pytest

from preview_lqr.costs import CostBounds, CostSchedule, random_uniform_schedule
from preview_lqr.policies import (
    PolicyConfig,
    clairvoyant_policy,
    prediction_tracking_policy,
)
from preview_lqr.regret import (
    AllTrialsFailedError,
    RegretReport,
    expected_regret_mc,
    phi_metric,
    regret,
    regret_via_control_deviation,
)
from preview_lqr.riccati import (
    Trajectory,
    TrajectoryOverflowError,
    backward_riccati,
    schedule_cost,
)
from preview_lqr.systems import (
    DisturbanceModel,
    LinearSystem,
    place_poles_single_input,
    random_controllable_system,
)


def scalar_system(a, b, x0=1.0):
    return LinearSystem([[a]], [[b]], [x0])


def scalar_schedule(q, r, T):
    return CostSchedule(
        tuple(np.array([[q]]) for _ in range(T)),
        tuple(np.array([[r]]) for _ in range(T - 1)),
    )


def varying_schedule(rng, n, T):
    bounds = CostBounds(
        0.5 * np.eye(n), 3.0 * np.eye(n), [[0.4]], [[1.8]]
    )
    return random_uniform_schedule(bounds, T, rng)


class TestTotalCost:
    """The quadratic cost of a trajectory, ``riccati.schedule_cost``."""

    def test_zero(self):
        sched = scalar_schedule(1.0, 1.0, 3)
        assert schedule_cost(np.zeros((3, 1)), np.zeros((2, 1)), sched) == 0.0

    def test_hand_arithmetic(self):
        sched = scalar_schedule(1.0, 1.0, 2)
        x = np.array([[1.0], [0.5]])
        u = np.array([[-0.5]])
        assert schedule_cost(x, u, sched) == pytest.approx(1.5)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        sched = varying_schedule(rng, 2, 5)
        x = rng.standard_normal((5, 2))
        u = rng.standard_normal((4, 1))
        base = schedule_cost(x, u, sched)
        assert schedule_cost(3.0 * x, 3.0 * u, sched) == pytest.approx(9.0 * base, rel=1e-12)


class TestRegret:
    def test_clairvoyant_has_zero_regret(self):
        rng = np.random.default_rng(1)
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched = varying_schedule(rng, 1, 6)
        opt = clairvoyant_policy(sys_, sched)
        report = regret(opt, sys_, sched)
        assert report.regret == pytest.approx(0.0, abs=1e-12)
        assert report.cost_policy == report.cost_optimal

    def test_report_consistency(self):
        rng = np.random.default_rng(2)
        sys_ = scalar_system(0.9, 1.0, 2.0)
        sched = varying_schedule(rng, 1, 8)
        K = place_poles_single_input(sys_, [0.1])
        traj = prediction_tracking_policy(sys_, sched, PolicyConfig(1, K))
        report = regret(traj, sys_, sched)
        assert report.regret == pytest.approx(
            report.cost_policy - report.cost_optimal, rel=1e-12
        )
        assert report.regret >= -1e-6 * max(1.0, report.cost_optimal)


class TestControlDeviationIdentity:
    def test_zero_on_clairvoyant(self):
        rng = np.random.default_rng(3)
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched = varying_schedule(rng, 1, 7)
        opt = clairvoyant_policy(sys_, sched)
        assert regret_via_control_deviation(opt, sys_, sched) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_constant_offset_hand_sum(self):
        # Perturbing each optimal control by delta adds
        # sum_t delta^2 (R + b^2 P*[t+1]) exactly.
        sys_ = scalar_system(0.0, 1.0, 1.0)
        sched = scalar_schedule(1.0, 1.0, 4)
        sol = backward_riccati(sys_, sched)
        delta = 0.3
        x = np.zeros((4, 1))
        u = np.zeros((3, 1))
        x[0] = 1.0
        for t in range(3):
            u[t] = sol.K[t] @ x[t] + delta
            x[t + 1] = sys_.A @ x[t] + sys_.B @ u[t]
        traj = Trajectory(x, u, schedule_cost(x, u, sched))
        # With a = 0 the comparator feedback along our states equals the
        # optimal feedback, so each term is delta^2 (1 + P*[t+1]).
        expected = sum(delta**2 * (1.0 + sol.P[t + 1][0, 0]) for t in range(3))
        assert regret_via_control_deviation(traj, sys_, sched) == pytest.approx(
            expected, rel=1e-12
        )

    def test_matches_direct_regret(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            T = int(rng.integers(6, 20))
            sys_ = random_controllable_system(
                n, 1, -1.2, 1.2, rng, x0=rng.standard_normal(n)
            )
            sched = varying_schedule(rng, n, T)
            K = place_poles_single_input(sys_, np.linspace(0.05, 0.3, n))
            traj = prediction_tracking_policy(sys_, sched, PolicyConfig(1, K))
            report = regret(traj, sys_, sched)
            ident = regret_via_control_deviation(traj, sys_, sched)
            assert abs(report.regret - ident) <= 1e-6 * max(1.0, abs(report.regret))


class TestExpectedRegretMc:
    def test_zero_covariance_collapses(self):
        rng = np.random.default_rng(5)
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched = varying_schedule(rng, 1, 8)
        K = place_poles_single_input(sys_, [0.1])

        def policy(s, sch, w):
            return prediction_tracking_policy(s, sch, PolicyConfig(1, K), w)

        dist = DisturbanceModel(np.zeros((1, 1)))
        report = expected_regret_mc(sys_, sched, policy, dist, trials=5, master_seed=0)
        deterministic = regret(prediction_tracking_policy(sys_, sched, PolicyConfig(1, K)), sys_, sched)
        assert report.stderr == 0.0
        assert report.regret == pytest.approx(deterministic.regret, rel=1e-9, abs=1e-9)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(6)
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched = varying_schedule(rng, 1, 8)
        K = place_poles_single_input(sys_, [0.1])

        def policy(s, sch, w):
            return prediction_tracking_policy(s, sch, PolicyConfig(1, K), w)

        dist = DisturbanceModel(0.5 * np.eye(1))
        a = expected_regret_mc(sys_, sched, policy, dist, trials=6, master_seed=17)
        b = expected_regret_mc(sys_, sched, policy, dist, trials=6, master_seed=17)
        assert a.regret == b.regret
        assert a.stderr == b.stderr

    def test_overflow_trials_excluded(self):
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched = scalar_schedule(1.0, 1.0, 5)
        calls = {"count": 0}

        def flaky_policy(s, sch, w):
            calls["count"] += 1
            if calls["count"] % 2 == 1:
                raise TrajectoryOverflowError(3)
            return clairvoyant_policy(s, sch, w)

        dist = DisturbanceModel(0.1 * np.eye(1))
        report = expected_regret_mc(sys_, sched, flaky_policy, dist, trials=6, master_seed=0)
        assert report.excluded_trials == 3
        assert report.trials == 3

    def test_all_failures_raise(self):
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched = scalar_schedule(1.0, 1.0, 5)

        def doomed(s, sch, w):
            raise TrajectoryOverflowError(1)

        dist = DisturbanceModel(np.eye(1))
        with pytest.raises(AllTrialsFailedError):
            expected_regret_mc(sys_, sched, doomed, dist, trials=4, master_seed=0)


class TestPhiMetric:
    def test_full_preview_collapses(self):
        sys_ = scalar_system(0.9, 1.0, 2.0)
        bounds = CostBounds(0.5 * np.eye(1), 3.0 * np.eye(1), [[0.4]], [[1.8]])
        T = 20
        phi = phi_metric(sys_, bounds, T, T - 2, trials=4, master_seed=0, poles=[0.1])
        assert abs(phi) <= 1e-8

    def test_paired_determinism(self):
        sys_ = scalar_system(0.9, 1.0, 2.0)
        bounds = CostBounds(0.5 * np.eye(1), 3.0 * np.eye(1), [[0.4]], [[1.8]])
        a = phi_metric(sys_, bounds, 15, 2, trials=5, master_seed=3, poles=[0.1])
        b = phi_metric(sys_, bounds, 15, 2, trials=5, master_seed=3, poles=[0.1])
        assert a == b

    def test_fixed_schedule_accepted(self):
        sys_ = scalar_system(0.9, 1.0, 2.0)
        sched = scalar_schedule(1.0, 1.0, 12)
        phi = phi_metric(sys_, sched, 12, 2, trials=2, master_seed=0, poles=[0.1])
        assert abs(phi) <= 1e-8


class TestRegretReport:
    def test_defaults(self):
        report = RegretReport(regret=1.0, cost_policy=3.0, cost_optimal=2.0)
        assert report.trials == 1
        assert report.excluded_trials == 0
