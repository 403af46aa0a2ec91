import numpy as np
import pytest

from preview_lqr.costs import (
    CostBounds,
    CostSchedule,
    IncomparableScheduleError,
    frozen_schedule,
    loewner_leq,
    random_uniform_schedule,
    sequence_extrema,
    verify_bounds,
)


def pendulum_bounds():
    return CostBounds(
        8e3 * np.eye(4), 3.2e4 * np.eye(4), [[2e3]], [[9.8e4]]
    )


def constant_schedule(Q, R, T):
    return CostSchedule(tuple(Q for _ in range(T)), tuple(R for _ in range(T - 1)))


class _ForcedRng:
    """Stub generator returning a constant for every uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return np.full(size, self.value)


class TestCostSchedule:
    def test_stores_read_only_stacks(self):
        sched = constant_schedule(2.0 * np.eye(3), np.eye(2), 5)
        assert sched.Q.shape == (5, 3, 3) and sched.R.shape == (4, 2, 2)
        assert (sched.horizon, sched.n, sched.m) == (5, 3, 2)
        with pytest.raises(ValueError):
            sched.Q[0, 0, 0] = 1.0
        same = CostSchedule(sched.Q, sched.R)
        np.testing.assert_array_equal(same.Q, sched.Q)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ValueError):
            CostSchedule((np.eye(2), np.eye(3)), (np.eye(1),))
        with pytest.raises(ValueError, match="square"):
            CostSchedule((np.ones((2, 3)), np.ones((2, 3))), (np.eye(1),))

    def test_rejects_short_schedule(self):
        with pytest.raises(ValueError):
            CostSchedule((np.eye(2),), ())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CostSchedule((np.eye(2), np.eye(2)), (np.eye(1), np.eye(1)))

    def test_rejects_indefinite_state_cost(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="semidefinite"):
            CostSchedule((bad, np.eye(2)), (np.eye(1),))

    def test_rejects_semidefinite_control_cost(self):
        with pytest.raises(ValueError, match="positive definite"):
            CostSchedule((np.eye(2), np.eye(2)), (np.zeros((1, 1)),))

    def test_rejects_asymmetric(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            CostSchedule((bad, np.eye(2)), (np.eye(1),))


class TestVerifyBounds:
    def test_constant_at_bounds(self):
        bounds = pendulum_bounds()
        sched = constant_schedule(8e3 * np.eye(4), np.array([[2e3]]), 5)
        assert verify_bounds(sched, bounds)

    def test_violation_detected(self):
        bounds = pendulum_bounds()
        sched = constant_schedule(2 * 3.2e4 * np.eye(4), np.array([[2e3]]), 5)
        assert not verify_bounds(sched, bounds)

    def test_generator_output_always_within(self):
        bounds = pendulum_bounds()
        for seed in range(10):
            sched = random_uniform_schedule(bounds, 12, np.random.default_rng(seed))
            assert verify_bounds(sched, bounds)


class TestRandomUniformSchedule:
    def test_forced_zero_hits_lower_bound(self):
        bounds = pendulum_bounds()
        sched = random_uniform_schedule(bounds, 4, _ForcedRng(0.0))
        for Q in sched.Q:
            np.testing.assert_array_equal(Q, bounds.Q_min)
        for R in sched.R:
            np.testing.assert_array_equal(R, bounds.R_min)

    def test_forced_one_hits_upper_bound(self):
        bounds = pendulum_bounds()
        sched = random_uniform_schedule(bounds, 4, _ForcedRng(1.0))
        for Q in sched.Q:
            np.testing.assert_array_equal(Q, bounds.Q_max)

    def test_isotropic_draws_stay_isotropic(self):
        bounds = pendulum_bounds()
        sched = random_uniform_schedule(bounds, 8, np.random.default_rng(0))
        for Q in sched.Q:
            c = Q[0, 0]
            assert 8e3 <= c <= 3.2e4
            np.testing.assert_allclose(Q, c * np.eye(4))

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError):
            random_uniform_schedule(pendulum_bounds(), 1, np.random.default_rng(0))


class TestFrozenSchedule:
    def test_full_information_returns_input(self):
        sched = constant_schedule(np.eye(2), np.eye(1), 5)
        assert frozen_schedule(sched, 3, 1) is sched
        assert frozen_schedule(sched, 0, 4) is sched

    def test_constant_schedule_unchanged(self):
        sched = constant_schedule(2.0 * np.eye(2), np.eye(1), 6)
        frozen = frozen_schedule(sched, 1, 1)
        for a, b in zip(frozen.Q, sched.Q):
            np.testing.assert_array_equal(a, b)

    def test_tail_repeats_freeze_entry(self):
        Q = tuple(float(i + 1) * np.eye(1) for i in range(4))
        R = tuple(np.eye(1) for _ in range(3))
        sched = CostSchedule(Q, R)
        frozen = frozen_schedule(sched, 1, 0)
        values = [float(M[0, 0]) for M in frozen.Q]
        assert values == [1.0, 2.0, 2.0, 2.0]

    def test_prefix_agreement(self):
        rng = np.random.default_rng(2)
        sched = random_uniform_schedule(pendulum_bounds(), 10, rng)
        for t, W in [(0, 0), (2, 3), (4, 1)]:
            frozen = frozen_schedule(sched, t, W)
            for i in range(t + W + 1):
                np.testing.assert_array_equal(frozen.Q[i], sched.Q[i])
                if i <= len(sched.R) - 1:
                    np.testing.assert_array_equal(frozen.R[i], sched.R[i])

    def test_rejects_negative_indices(self):
        sched = constant_schedule(np.eye(1), np.eye(1), 4)
        with pytest.raises(ValueError):
            frozen_schedule(sched, -1, 0)

    def test_view_matches_materialized(self):
        sched = random_uniform_schedule(pendulum_bounds(), 9, np.random.default_rng(4))
        T = sched.horizon
        for s in (0, 3, 7):
            frozen = frozen_schedule(sched, s, 0)
            assert isinstance(frozen, CostSchedule)
            assert (frozen.horizon, frozen.n, frozen.m) == (T, 4, 1)
            idx = np.minimum(np.arange(T), s)
            np.testing.assert_array_equal(frozen.Q, sched.Q[idx])
            np.testing.assert_array_equal(frozen.R, sched.R[idx[:-1]])
        assert frozen_schedule(sched, 8, 0) is sched


class TestSequenceExtrema:
    def test_constant_schedule(self):
        sched = constant_schedule(3.0 * np.eye(2), 2.0 * np.eye(1), 4)
        ext = sequence_extrema(sched)
        np.testing.assert_array_equal(ext.Qbar_min, 3.0 * np.eye(2))
        np.testing.assert_array_equal(ext.Qbar_max, 3.0 * np.eye(2))
        np.testing.assert_array_equal(ext.Rbar_min, 2.0 * np.eye(1))

    def test_scalar_sequence(self):
        Q = tuple(np.array([[v]]) for v in (3.0, 1.0, 2.0))
        R = tuple(np.eye(1) for _ in range(2))
        ext = sequence_extrema(CostSchedule(Q, R))
        assert ext.Qbar_min[0, 0] == pytest.approx(1.0)
        assert ext.Qbar_max[0, 0] == pytest.approx(3.0)

    def test_incomparable_pair_raises(self):
        Q = (np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
        R = (np.eye(1),)
        with pytest.raises(IncomparableScheduleError):
            sequence_extrema(CostSchedule(Q, R))

    def test_generated_schedules_always_ordered(self):
        bounds = pendulum_bounds()
        for seed in range(8):
            sched = random_uniform_schedule(bounds, 15, np.random.default_rng(seed))
            ext = sequence_extrema(sched)
            for Q in sched.Q:
                assert loewner_leq(ext.Qbar_min, Q)
                assert loewner_leq(Q, ext.Qbar_max)
            for R in sched.R:
                assert loewner_leq(ext.Rbar_min, R)
                assert loewner_leq(R, ext.Rbar_max)


class TestCostBounds:
    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            CostBounds(2.0 * np.eye(2), np.eye(2), np.eye(1), np.eye(1))

    def test_rejects_semidefinite(self):
        with pytest.raises(ValueError):
            CostBounds(np.zeros((2, 2)), np.eye(2), np.eye(1), np.eye(1))
