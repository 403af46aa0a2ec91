import numpy as np
import pytest

from preview_lqr.bounds import (
    BoundConstants,
    DegenerateConstantsError,
    compute_bound_constants,
    geometric_sum,
    make_bound_report,
    regret_upper_bound,
    scaling_certificate,
    sufficient_condition_check,
)
from preview_lqr.costs import CostBounds, CostSchedule, random_uniform_schedule
from preview_lqr.policies import FrozenPlanner, PolicyConfig, prediction_tracking_policy
from preview_lqr.regret import regret_via_control_deviation
from preview_lqr.systems import (
    DisturbanceModel,
    LinearSystem,
    inverted_pendulum,
    place_poles_single_input,
)


def scalar_system(a, b, x0=1.0):
    return LinearSystem([[a]], [[b]], [x0])


def scalar_schedule(q, r, T):
    return CostSchedule(
        tuple(np.array([[q]]) for _ in range(T)),
        tuple(np.array([[r]]) for _ in range(T - 1)),
    )


def pendulum_setup(T, seed=0):
    sys_ = inverted_pendulum()
    bounds = CostBounds(8e3 * np.eye(4), 3.2e4 * np.eye(4), [[2e3]], [[9.8e4]])
    sched = random_uniform_schedule(bounds, T, np.random.default_rng(seed))
    K = place_poles_single_input(sys_, (1e-3, 6e-3, 4e-3, 3e-3))
    return sys_, bounds, sched, K


class TestGeometricSum:
    def test_zero_ratio(self):
        assert geometric_sum(0.0, 5) == pytest.approx(1.0)

    def test_unit_ratio(self):
        assert geometric_sum(1.0, 7) == pytest.approx(7.0)

    def test_hand_sum(self):
        assert geometric_sum(0.5, 4) == pytest.approx(1.875)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_sum(0.5, 0)


class TestComputeBoundConstants:
    def test_scalar_hand_check(self):
        # Fixed point of p = 1 + a^2 p - a^2 p^2 / (1 + p) with a = 0.5
        # solves p^2 - 0.25 p - 1 = 0.
        a = 0.5
        sys_ = scalar_system(a, 1.0)
        T = 200
        sched = scalar_schedule(1.0, 1.0, T)
        c = compute_bound_constants(sys_, sched, [[0.0]], W=0)
        p_expected = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
        assert c.Pbar_max[0, 0] == pytest.approx(p_expected, rel=1e-9)
        assert c.eta == pytest.approx(np.sqrt(1.0 - 1.0 / p_expected), rel=1e-9)
        # With a long constant schedule the interior value matrices sit at
        # the fixed point, so alpha approaches a^2 p.
        assert c.alpha == pytest.approx(a**2 * p_expected, rel=1e-6)
        assert c.gamma == pytest.approx(c.alpha / (c.alpha + 1.0), rel=1e-9)
        assert c.q == pytest.approx(0.5 * a + 0.5, rel=1e-12)
        assert c.C_f >= 1.0

    def test_constant_schedule_alpha1_preview_invariant(self):
        sys_ = scalar_system(0.8, 1.0)
        sched = scalar_schedule(2.0, 1.0, 30)
        values = [
            compute_bound_constants(sys_, sched, [[0.1]], W=W).alpha1
            for W in (0, 2, 5)
        ]
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(values[2], rel=1e-12)

    def test_pendulum_constant_ranges(self):
        sys_, bounds, sched, K = pendulum_setup(40)
        c = compute_bound_constants(sys_, sched, K, W=5)
        assert 0.0 < c.eta < 1.0
        assert 0.0 < c.gamma < 1.0
        assert 0.0 < c.q < 1.0
        assert c.D > 0.0 and c.C > 0.0 and c.C_f >= 1.0

    def test_incomparable_extrema_fall_back(self):
        from preview_lqr.costs import IncomparableScheduleError

        sys_ = LinearSystem([[0.5, 0.1], [0.0, 0.4]], [[0.0], [1.0]], [1.0, 1.0])
        Q = (np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), np.diag([1.5, 1.5]))
        R = (np.eye(1), np.eye(1))
        sched = CostSchedule(Q, R)
        with pytest.raises(IncomparableScheduleError):
            compute_bound_constants(sys_, sched, [[0.0, 0.0]], W=0)
        bounds = CostBounds(0.5 * np.eye(2), 3.0 * np.eye(2), [[0.5]], [[2.0]])
        c = compute_bound_constants(
            sys_, sched, [[0.0, 0.0]], W=0, cost_bounds=bounds
        )
        np.testing.assert_array_equal(c.Qbar_max, bounds.Q_max)

    def test_rejects_unstable_tracking_gain(self):
        sys_ = scalar_system(1.5, 1.0)
        sched = scalar_schedule(1.0, 1.0, 10)
        with pytest.raises(ValueError, match="stabilize"):
            compute_bound_constants(sys_, sched, [[0.0]], W=0)


class TestRegretUpperBound:
    def test_zero_initial_state(self):
        sys_, bounds, sched, K = pendulum_setup(20)
        c = compute_bound_constants(sys_, sched, K, W=2)
        assert regret_upper_bound(c, 20, 2, np.zeros(4)) == 0.0

    def test_preview_ratio_is_exact(self):
        sys_, bounds, sched, K = pendulum_setup(30)
        c = compute_bound_constants(sys_, sched, K, W=3)
        b0 = regret_upper_bound(c, 30, 3, sys_.x0)
        b1 = regret_upper_bound(c, 30, 4, sys_.x0)
        assert b1 / b0 == pytest.approx(c.gamma**2, rel=1e-12)

    def test_growth_in_horizon_saturates(self):
        sys_ = scalar_system(0.5, 1.0)
        sched = scalar_schedule(1.0, 1.0, 50)
        c = compute_bound_constants(sys_, sched, [[0.0]], W=0)
        values = [regret_upper_bound(c, T, 0, sys_.x0) for T in (100, 1000, 10000)]
        assert values[0] <= values[1] <= values[2]
        assert values[1] / 100 > values[2] / 10000 * 99  # strictly sublinear growth
        assert abs(values[2] - values[1]) <= 1e-6 * values[1]

    def test_pole_detection(self):
        sys_, bounds, sched, K = pendulum_setup(20)
        c = compute_bound_constants(sys_, sched, K, W=2)
        broken = BoundConstants(
            Pbar_max=c.Pbar_max, D=c.D, C_K=c.C_K, C=c.C, eta=0.5,
            alpha=c.alpha, beta=c.beta, gamma=c.gamma, alpha1=c.alpha1,
            alpha2=c.alpha2, C_f=c.C_f, q=0.5, epsilon=c.epsilon,
            Qbar_min=c.Qbar_min, Qbar_max=c.Qbar_max,
            Rbar_min=c.Rbar_min, Rbar_max=c.Rbar_max,
        )
        with pytest.raises(DegenerateConstantsError):
            regret_upper_bound(broken, 20, 2, sys_.x0)

    def test_dominates_realized_regret(self):
        sys_, bounds, sched, K = pendulum_setup(50, seed=3)
        planner = FrozenPlanner(sys_, sched)
        traj = prediction_tracking_policy(
            sys_, sched, PolicyConfig(5, K), planner=planner
        )
        realized = regret_via_control_deviation(
            traj, sys_, sched, solution=planner.solution(49)
        )
        c = compute_bound_constants(sys_, sched, K, W=5, planner=planner)
        bound = regret_upper_bound(c, 50, 5, sys_.x0)
        assert realized <= bound


class TestSufficientCondition:
    def test_monotone_in_upper_state_cost(self):
        sys_, bounds, sched, K = pendulum_setup(20)
        c = compute_bound_constants(sys_, sched, K, W=2)
        held = sufficient_condition_check(c, bounds, sys_)
        bigger = CostBounds(
            bounds.Q_min, 10.0 * bounds.Q_max, bounds.R_min, bounds.R_max
        )
        if held:
            assert sufficient_condition_check(c, bigger, sys_)

    def test_scalar_hand_arithmetic(self):
        sys_ = scalar_system(0.5, 1.0)
        sched = scalar_schedule(1.0, 1.0, 60)
        bounds = CostBounds(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
        c = compute_bound_constants(sys_, sched, [[0.0]], W=0)
        g, e, q = c.gamma, c.eta, c.q
        bracket = (1.0 + (c.alpha1 + c.alpha2) / (1.0 - g) ** 2) / (1.0 - e**2)
        bracket += (10.0 * c.C_f**2) / (
            q**2 * (q - e * g) ** 2 * (q - e) ** 2
            * (1.0 - e**2) * (1.0 - e**2 * g**2) * (1.0 - q**2)
        )
        # Scalar norms: |A| = 0.5, |B| = 1, |B R^-1 B'| = 1, extrema all 1.
        rhs = 5.0 * bracket / ((1.0 / c.C_K**2) * 6.0 * 0.25)
        expected = 1.0 >= rhs
        assert sufficient_condition_check(c, bounds, sys_) == expected


class TestScalingCertificate:
    def test_zero_noise_constant_schedule_trivially_certifies(self):
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched_bounds = CostBounds(np.eye(1), np.eye(1), [[0.7]], [[0.7]])
        dist = DisturbanceModel(np.zeros((1, 1)))
        report = scaling_certificate(
            sys_, sched_bounds, dist, Ts=(10, 20), W=2, trials=3,
            master_seed=0, poles=[0.1],
        )
        assert report.certified
        assert report.ratio == 1.0

    def test_noise_rates_are_finite_and_positive(self):
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched_bounds = CostBounds(
            0.5 * np.eye(1), 2.0 * np.eye(1), [[0.4]], [[1.5]]
        )
        dist = DisturbanceModel(0.3 * np.eye(1))
        report = scaling_certificate(
            sys_, sched_bounds, dist, Ts=(10, 20, 40), W=2, trials=20,
            master_seed=1, poles=[0.1],
        )
        assert all(r > 0 for r in report.rates)
        assert np.isfinite(report.ratio)

    def test_more_trials_shrink_stderr(self):
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched_bounds = CostBounds(
            0.5 * np.eye(1), 2.0 * np.eye(1), [[0.4]], [[1.5]]
        )
        dist = DisturbanceModel(0.3 * np.eye(1))
        small = scaling_certificate(
            sys_, sched_bounds, dist, Ts=(15,), W=2, trials=50,
            master_seed=2, poles=[0.1],
        )
        large = scaling_certificate(
            sys_, sched_bounds, dist, Ts=(15,), W=2, trials=200,
            master_seed=2, poles=[0.1],
        )
        assert 0.3 <= large.stderrs[0] / small.stderrs[0] <= 0.8

    def test_rejects_short_horizons(self):
        sys_ = scalar_system(0.8, 1.0, 2.0)
        bounds = CostBounds(np.eye(1), np.eye(1), [[0.7]], [[0.7]])
        dist = DisturbanceModel(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            scaling_certificate(
                sys_, bounds, dist, Ts=(3,), W=2, trials=2, master_seed=0, poles=[0.1]
            )


class TestBoundReport:
    def test_margin_consistency(self):
        sys_, bounds, sched, K = pendulum_setup(30, seed=5)
        planner = FrozenPlanner(sys_, sched)
        traj = prediction_tracking_policy(
            sys_, sched, PolicyConfig(4, K), planner=planner
        )
        realized = regret_via_control_deviation(
            traj, sys_, sched, solution=planner.solution(29)
        )
        report = make_bound_report(sys_, sched, K, 4, realized, bounds, planner)
        assert report.margin == pytest.approx(
            report.bound_value - report.realized_regret
        )
        assert report.bound_value >= 0.0
