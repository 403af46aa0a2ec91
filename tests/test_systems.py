import numpy as np
import pytest

from preview_lqr.costs import CostSchedule
from preview_lqr.riccati import simulate
from preview_lqr.systems import (
    DisturbanceModel,
    GenerationBudgetError,
    LinearSystem,
    controllability_rank,
    inverted_pendulum,
    place_poles_single_input,
    random_controllable_system,
    spectral_radius,
)


def scalar_system(a, b, x0=1.0):
    return LinearSystem([[a]], [[b]], [x0])


def simulate_step(sys_, x, u, w):
    """x[1] of a one-step closed-loop run that applies the control u.

    The loop's control is L (x - r) + l with a zero gain L and l = u.
    """
    sched = CostSchedule(np.stack([np.eye(sys_.n)] * 2), np.eye(sys_.m)[None])
    (traj,) = simulate(sys_, sched, np.zeros((sys_.m, sys_.n)), x, [w], l=[u])
    return traj.x[1]


class TestSimulateStep:
    """One step of the system dynamics, through ``riccati.simulate``."""

    def test_state_annihilated(self):
        sys_ = scalar_system(0.0, 1.0, 5.0)
        assert simulate_step(sys_, [5.0], [3.0], [0.0]) == pytest.approx([3.0])

    def test_scalar_arithmetic(self):
        sys_ = scalar_system(1.0, 1.0, 2.0)
        assert simulate_step(sys_, [2.0], [-1.0], [0.5]) == pytest.approx([1.5])

    def test_pendulum_first_column(self):
        sys_ = inverted_pendulum()
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        out = simulate_step(sys_, e1, [0.0], np.zeros(4))
        np.testing.assert_allclose(out, np.zeros(4))

    def test_dimension_mismatch(self):
        sys_ = inverted_pendulum()
        with pytest.raises(ValueError):
            simulate_step(sys_, np.zeros(3), [0.0], np.zeros(4))
        with pytest.raises(ValueError):
            simulate_step(sys_, np.zeros(4), [0.0, 0.0], np.zeros(4))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        sys_ = random_controllable_system(3, 2, -1.0, 1.0, rng)
        for _ in range(20):
            x1, x2 = rng.standard_normal((2, 3))
            u1, u2 = rng.standard_normal((2, 2))
            w1, w2 = rng.standard_normal((2, 3))
            lhs = simulate_step(sys_, x1 + x2, u1 + u2, w1 + w2)
            rhs = simulate_step(sys_, x1, u1, w1) + simulate_step(sys_, x2, u2, w2)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_rotation(self):
        # Characteristic polynomial z^2 + 1 puts both eigenvalues on the
        # unit circle.
        assert spectral_radius([[0.0, 1.0], [-1.0, 0.0]]) == pytest.approx(1.0)


class TestControllability:
    def test_scalar(self):
        assert controllability_rank(scalar_system(1.0, 1.0)) == 1

    def test_decoupled_mode(self):
        sys_ = LinearSystem(
            np.diag([1.0, 2.0]), [[1.0], [0.0]], [0.0, 0.0], check_controllable=False
        )
        assert controllability_rank(sys_) == 1

    def test_pendulum_full_rank(self):
        assert controllability_rank(inverted_pendulum()) == 4

    def test_constructor_rejects_uncontrollable(self):
        with pytest.raises(ValueError, match="not controllable"):
            LinearSystem(np.diag([1.0, 2.0]), [[1.0], [0.0]], [0.0, 0.0])


class TestPolePlacement:
    def test_double_integrator_zero_poles(self):
        sys_ = LinearSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [0.0, 0.0])
        K = place_poles_single_input(sys_, [0.0, 0.0])
        np.testing.assert_allclose(K, [[0.0, 0.0]], atol=1e-12)

    def test_double_integrator_hand_solution(self):
        # Companion structure gives char. poly z^2 - k2 z - k1, so poles
        # {0.1, 0.2} need K = [-0.02, 0.3].
        sys_ = LinearSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [0.0, 0.0])
        K = place_poles_single_input(sys_, [0.1, 0.2])
        np.testing.assert_allclose(K, [[-0.02, 0.3]], atol=1e-12)

    def test_pendulum_benchmark_poles(self):
        sys_ = inverted_pendulum()
        K = place_poles_single_input(sys_, (1e-3, 6e-3, 4e-3, 3e-3))
        assert spectral_radius(sys_.A + sys_.B @ K) <= 6e-3 + 1e-6

    def test_eigenvalue_multiset(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            sys_ = random_controllable_system(n, 1, -2.0, 2.0, rng)
            poles = rng.uniform(-0.5, 0.5, size=n)
            K = place_poles_single_input(sys_, poles)
            got = np.sort_complex(np.linalg.eigvals(sys_.A + sys_.B @ K))
            want = np.sort_complex(poles.astype(complex))
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_complex_conjugate_pairs(self):
        sys_ = LinearSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [0.0, 0.0])
        K = place_poles_single_input(sys_, [0.1 + 0.2j, 0.1 - 0.2j])
        got = np.sort_complex(np.linalg.eigvals(sys_.A + sys_.B @ K))
        np.testing.assert_allclose(got, [0.1 - 0.2j, 0.1 + 0.2j], atol=1e-9)

    def test_rejects_unpaired_complex(self):
        sys_ = LinearSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match="conjugate"):
            place_poles_single_input(sys_, [0.1 + 0.2j, 0.3])

    def test_rejects_multi_input(self):
        rng = np.random.default_rng(0)
        sys_ = random_controllable_system(2, 2, -1.0, 1.0, rng)
        with pytest.raises(NotImplementedError):
            place_poles_single_input(sys_, [0.1, 0.2])

    def test_rejects_uncontrollable(self):
        sys_ = LinearSystem(
            np.diag([1.0, 2.0]), [[1.0], [0.0]], [0.0, 0.0], check_controllable=False
        )
        with pytest.raises(ValueError, match="not controllable"):
            place_poles_single_input(sys_, [0.1, 0.2])


class TestRandomSystem:
    def test_deterministic_replay(self):
        a = random_controllable_system(2, 1, 0.0, 10.0, np.random.default_rng(42))
        b = random_controllable_system(2, 1, 0.0, 10.0, np.random.default_rng(42))
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.B, b.B)

    def test_always_controllable(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sys_ = random_controllable_system(4, 1, 0.0, 10.0, rng)
            assert controllability_rank(sys_) == 4

    def test_scalar_first_draw(self):
        sys_ = random_controllable_system(1, 1, 0.0, 10.0, np.random.default_rng(1))
        assert sys_.n == 1 and sys_.m == 1

    def test_budget_error(self):
        # Entries drawn from a degenerate range are all equal, so the
        # controllability matrix of any n >= 2 draw is rank deficient.
        class ConstantRng:
            def uniform(self, lo, hi, size=None):
                return np.full(size, 0.5 * (lo + hi))

        with pytest.raises(GenerationBudgetError):
            random_controllable_system(2, 1, 0.9999999, 1.0, ConstantRng(), budget=25)

    def test_argument_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_controllable_system(0, 1, 0.0, 1.0, rng)
        with pytest.raises(ValueError):
            random_controllable_system(2, 1, 1.0, 1.0, rng)


class TestInvertedPendulum:
    def test_matrix_entries(self):
        sys_ = inverted_pendulum()
        assert sys_.A[1][2] == pytest.approx(2.6727)
        np.testing.assert_allclose(
            sys_.B.ravel(), [0.0, 1.8182, 0.0, 4.5455]
        )

    def test_rank(self):
        assert controllability_rank(inverted_pendulum()) == 4

    def test_open_loop_unstable(self):
        assert spectral_radius(inverted_pendulum().A) > 1.0


class TestDisturbanceModel:
    def test_zero_covariance_samples_zero(self):
        dist = DisturbanceModel(np.zeros((3, 3)))
        w = dist.sample(np.random.default_rng(0), 10)
        np.testing.assert_array_equal(w, np.zeros((10, 3)))

    def test_empirical_covariance(self):
        cov = np.array([[4.0, 1.0], [1.0, 2.0]])
        dist = DisturbanceModel(cov)
        w = dist.sample(np.random.default_rng(123), 200000)
        np.testing.assert_allclose(w.T @ w / len(w), cov, atol=0.05)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            DisturbanceModel([[1.0, 0.0], [0.0, -1.0]])


class TestLinearSystemValidation:
    def test_immutable_arrays(self):
        sys_ = inverted_pendulum()
        with pytest.raises(ValueError):
            sys_.A[0, 0] = 5.0

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            LinearSystem([[1.0, 0.0]], [[1.0]], [0.0])
        with pytest.raises(ValueError):
            LinearSystem([[1.0]], [[1.0], [1.0]], [0.0])
        with pytest.raises(ValueError):
            LinearSystem([[1.0]], [[1.0]], [0.0, 1.0])
