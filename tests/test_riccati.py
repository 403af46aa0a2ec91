import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preview_lqr.costs import CostSchedule, frozen_schedule, random_uniform_schedule, CostBounds
from preview_lqr.policies import clairvoyant_policy
from preview_lqr.riccati import (
    DareConvergenceError,
    OracleSizeError,
    RiccatiSolution,
    TrajectoryOverflowError,
    affine_terms,
    backward_riccati,
    brute_force_lqr_oracle,
    frozen_backward_sweep,
    riccati_step,
    rollout,
    schedule_cost,
    solve_dare,
)
from preview_lqr.systems import LinearSystem, random_controllable_system


def scalar_system(a, b, x0=1.0):
    return LinearSystem([[a]], [[b]], [x0])


def scalar_schedule(q, r, T):
    return CostSchedule(
        tuple(np.array([[q]]) for _ in range(T)),
        tuple(np.array([[r]]) for _ in range(T - 1)),
    )


def random_problem(rng, n_max=3, T_max=8):
    n = int(rng.integers(1, n_max + 1))
    T = int(rng.integers(2, T_max + 1))
    sys_ = random_controllable_system(n, 1, -1.5, 1.5, rng, x0=rng.standard_normal(n))
    Q = []
    for _ in range(T):
        M = rng.standard_normal((n, n))
        Q.append(M @ M.T / n + 0.2 * np.eye(n))
    R = tuple(np.array([[0.3 + rng.random()]]) for _ in range(T - 1))
    return sys_, CostSchedule(tuple(Q), R)


class TestBackwardRiccati:
    def test_memoryless_system(self):
        sys_ = scalar_system(0.0, 1.0)
        sched = scalar_schedule(2.0, 1.0, 5)
        sol = backward_riccati(sys_, sched)
        for i in range(5):
            assert sol.P[i][0, 0] == pytest.approx(2.0)
        for i in range(4):
            assert sol.K[i][0, 0] == pytest.approx(0.0)

    def test_two_step_hand_solution(self):
        # Minimizing x0^2 + u0^2 + (x0 + u0)^2 gives u0 = -x0/2 and value
        # 1.5 x0^2.
        sys_ = scalar_system(1.0, 1.0)
        sol = backward_riccati(sys_, scalar_schedule(1.0, 1.0, 2))
        assert sol.P[1][0, 0] == pytest.approx(1.0)
        assert sol.K[0][0, 0] == pytest.approx(-0.5)
        assert sol.P[0][0, 0] == pytest.approx(1.5)

    def test_constant_schedule_freeze_invariance(self):
        sys_ = scalar_system(0.9, 0.7)
        sched = scalar_schedule(1.3, 0.8, 8)
        base = backward_riccati(sys_, sched)
        for t, W in [(0, 0), (2, 1), (5, 2)]:
            frozen = backward_riccati(sys_, frozen_schedule(sched, t, W))
            np.testing.assert_allclose(frozen.K, base.K, rtol=1e-12)

    def test_value_matches_rollout_cost(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            sys_, sched = random_problem(rng)
            sol = backward_riccati(sys_, sched)
            traj = rollout(sys_, sol, sys_.x0)
            value = float(sys_.x0 @ sol.P[0] @ sys_.x0)
            assert traj.cost == pytest.approx(value, rel=1e-8)

    def test_dimension_mismatch(self):
        sys_ = scalar_system(1.0, 1.0)
        sched = CostSchedule((np.eye(2), np.eye(2)), (np.eye(1),))
        with pytest.raises(ValueError):
            backward_riccati(sys_, sched)


def random_pd(rng, k, batch=()):
    M = rng.standard_normal(batch + (k, k))
    return M @ np.swapaxes(M, -1, -2) / k + 0.3 * np.eye(k)


def random_schedule(rng, n, m, T):
    return CostSchedule(random_pd(rng, n, (T,)), random_pd(rng, m, (T - 1,)))


def looped_backward_riccati(sys_, schedule):
    """The backward pass written out step by step."""
    A, B = sys_.A, sys_.B
    AT, BT = A.T.copy(), B.T.copy()
    T = schedule.horizon
    P = [None] * T
    K = [None] * (T - 1)
    P[T - 1] = np.asarray(schedule.Q[T - 1], dtype=float)
    for i in range(T - 2, -1, -1):
        Pn = P[i + 1]
        PnA = Pn @ A
        PnB = Pn @ B
        G = schedule.R[i] + BT @ PnB
        if sys_.m == 1:
            Ki = (BT @ PnA) / (-G[0, 0])
        else:
            Ki = -np.linalg.solve(G, BT @ PnA)
        Pi = AT @ PnA + schedule.Q[i] + (AT @ PnB) @ Ki
        P[i] = 0.5 * (Pi + Pi.T)
        K[i] = Ki
    return np.array(P), np.array(K)


dims = st.tuples(st.integers(1, 4), st.integers(1, 2), st.integers(0, 2**32 - 1))


class TestRiccatiStep:
    @settings(max_examples=40, deadline=None)
    @given(dims, st.integers(1, 6))
    @example((4, 2, 0), 1)
    def test_batched_equals_looped_and_symmetric(self, nms, batch):
        n, m, seed = nms
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(n, m, -1.5, 1.5, rng)
        P = random_pd(rng, n, (batch,))
        Q = random_pd(rng, n, (batch,))
        R = random_pd(rng, m, (batch,))
        P_prev, K = riccati_step(P, sys_.A, sys_.B, Q, R)
        assert P_prev.shape == (batch, n, n) and K.shape == (batch, m, n)
        np.testing.assert_array_equal(P_prev, np.swapaxes(P_prev, -1, -2))
        for b in range(batch):
            P_b, K_b = riccati_step(P[b], sys_.A, sys_.B, Q[b], R[b])
            np.testing.assert_array_equal(P_prev[b], P_b)
            np.testing.assert_array_equal(K[b], K_b)

    def test_scalar_hand_step(self):
        # P = 1, a = b = q = r = 1: K = -1/2, P_prev = 1 + 1 - 1/2.
        one = np.ones((1, 1))
        P_prev, K = riccati_step(one, one, one, one, one)
        assert K[0, 0] == -0.5 and P_prev[0, 0] == 1.5


class TestBackwardRiccatiLoop:
    @settings(max_examples=40, deadline=None)
    @given(dims, st.integers(2, 40))
    def test_equals_stepwise_loop(self, nms, T):
        n, m, seed = nms
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(n, m, -1.5, 1.5, rng)
        sched = random_schedule(rng, n, m, T)
        sol = backward_riccati(sys_, sched)
        P, K = looped_backward_riccati(sys_, sched)
        np.testing.assert_array_equal(sol.P, P)
        np.testing.assert_array_equal(sol.K, K)


def looped_affine_terms(sys_, P, K, R, w, last):
    """The affine recursion for one plan on one pass, step by step.

    The plan knows w[0..last]: q = 0 above last, then
    k[i] = -(R[i] + B' P[i+1] B)^-1 B' (P[i+1] w[i] + q[i+1]),
    q[i] = (A + B K[i])' (q[i+1] + P[i+1] w[i]).
    """
    A, B = sys_.A, sys_.B
    q = np.zeros(sys_.n)
    k = np.zeros((len(P) - 1, sys_.m))
    for i in range(last, -1, -1):
        Pn = P[i + 1]
        Pw = Pn @ w[i]
        G = R[i] + B.T @ Pn @ B
        k[i] = -np.linalg.solve(G, B.T @ (Pw + q))
        q = (A + B @ K[i]).T @ (q + Pw)
    return k


def clairvoyant_terms(sys_, sched, w):
    sol = backward_riccati(sys_, sched)
    T = sched.horizon
    return affine_terms(sys_, sol.P[None], sol.K[None], sched.R, w, [0], [T - 2])[:, 0]


class TestAffineTerms:
    def test_zero_disturbance_reduces(self):
        rng = np.random.default_rng(2)
        sys_, sched = random_problem(rng)
        T = sched.horizon
        w = np.zeros((T - 1, sys_.n))
        np.testing.assert_array_equal(clairvoyant_terms(sys_, sched, w), np.zeros((T - 1, 1)))
        plain = clairvoyant_policy(sys_, sched)
        zero = clairvoyant_policy(sys_, sched, w)
        np.testing.assert_array_equal(zero.x, plain.x)
        np.testing.assert_array_equal(zero.u, plain.u)

    def test_hand_solved_feedforward(self):
        # With a = 0 the state decouples; the first control only balances
        # the known unit disturbance entering the next state.
        sys_ = scalar_system(0.0, 1.0)
        sched = scalar_schedule(1.0, 1.0, 3)
        w = np.array([[1.0], [0.0]])
        k = clairvoyant_terms(sys_, sched, w)
        assert k[0][0] == pytest.approx(-0.5)
        assert k[1][0] == pytest.approx(0.0)
        assert clairvoyant_policy(sys_, sched, w).u[0][0] == pytest.approx(-0.5)

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sys_, sched = random_problem(rng)
            T = sched.horizon
            w = rng.standard_normal((T - 1, sys_.n))
            mine = clairvoyant_policy(sys_, sched, w)
            ref = brute_force_lqr_oracle(sys_, sched, w)
            np.testing.assert_allclose(mine.u, ref.u, rtol=1e-8, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        dims,
        st.integers(3, 40).flatmap(
            lambda T: st.tuples(st.just(T), st.sampled_from([0, T - 2]) | st.integers(0, T - 2))
        ),
        st.integers(0, 40),
    )
    @example((4, 2, 0), (40, 38), 0)
    @example((1, 1, 1), (3, 0), 2)
    def test_batches_match_looped_recursion(self, nms, T_W, zero_rows):
        # Plan t runs on pass min(t + W, T - 1) and knows w[0..t], as in
        # FrozenPlanner.plan_points (the whole batch) and plan (batch 1).
        n, m, seed = nms
        T, W = T_W
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(n, m, -1.2, 1.2, rng)
        sched = random_schedule(rng, n, m, T)
        P, K = frozen_backward_sweep(sys_, sched)
        w = rng.standard_normal((T - 1, n))
        w[: min(zero_rows, T - 1)] = 0.0
        t_all = np.arange(T - 1)
        s_of = np.minimum(t_all + W, T - 1)
        batch = affine_terms(sys_, P, K, sched.R, w, s_of, t_all)
        assert batch.shape == (T - 1, T - 1, m)
        for t in t_all:
            ref = looped_affine_terms(sys_, P[s_of[t]], K[s_of[t]], sched.R, w, t)
            single = affine_terms(sys_, P, K, sched.R, w, [s_of[t]], [t])
            assert single.shape == (T - 1, 1, m)
            tol = 1e-10 * np.abs(ref).max()
            assert np.abs(batch[:, t] - ref).max() <= tol
            assert np.abs(single[:, 0] - ref).max() <= tol

    def test_rejects_bad_disturbance_shape(self):
        sys_ = scalar_system(0.9, 1.0)
        sched = scalar_schedule(1.0, 1.0, 4)
        with pytest.raises(ValueError, match="shape"):
            clairvoyant_terms(sys_, sched, np.ones((4, 1)))


class TestSolveDare:
    def test_memoryless(self):
        P = solve_dare(0.0, 1.0, 3.0, 1.0)
        assert P[0, 0] == pytest.approx(3.0)

    def test_scalar_golden_ratio(self):
        P = solve_dare(1.0, 1.0, 1.0, 1.0)
        assert abs(P[0, 0] - (1 + np.sqrt(5.0)) / 2) <= 1e-10

    def test_residual_contract(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            sys_ = random_controllable_system(n, 1, -2.0, 2.0, rng)
            Q = np.eye(n) * (1.0 + rng.random())
            R = np.array([[0.5 + rng.random()]])
            P = solve_dare(sys_.A, sys_.B, Q, R)
            PA = P @ sys_.A
            PB = P @ sys_.B
            G = R + sys_.B.T @ PB
            resid = Q + sys_.A.T @ PA - (sys_.A.T @ PB) @ np.linalg.solve(
                G, sys_.B.T @ PA
            ) - P
            assert np.linalg.norm(resid, 2) <= 10 * 1e-10 * np.linalg.norm(P, 2)

    def test_nonconvergence_raises(self):
        with pytest.raises(DareConvergenceError):
            solve_dare(1.0, 1.0, 1.0, 1.0, init=np.array([[1.0]]), max_iter=2)


class TestRollout:
    def test_zero_gains_memoryless(self):
        sys_ = scalar_system(0.0, 1.0, 7.0)
        sched = scalar_schedule(1.0, 1.0, 5)
        sol = RiccatiSolution(
            np.ones((5, 1, 1)), np.zeros((4, 1, 1)), sched
        )
        traj = rollout(sys_, sol, sys_.x0)
        np.testing.assert_array_equal(traj.x[1:], np.zeros((4, 1)))

    def test_two_step_values(self):
        sys_ = scalar_system(1.0, 1.0)
        sol = backward_riccati(sys_, scalar_schedule(1.0, 1.0, 2))
        traj = rollout(sys_, sol, [1.0])
        assert traj.u[0][0] == pytest.approx(-0.5)
        assert traj.x[1][0] == pytest.approx(0.5)
        assert traj.cost == pytest.approx(1.5)

    def test_replay_bitwise(self):
        rng = np.random.default_rng(9)
        sys_, sched = random_problem(rng)
        sol = backward_riccati(sys_, sched)
        w = rng.standard_normal((sched.horizon - 1, sys_.n))
        a = rollout(sys_, sol, sys_.x0, w)
        b = rollout(sys_, sol, sys_.x0, w)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)
        assert a.cost == b.cost

    def test_overflow_carries_time_index(self):
        sys_ = scalar_system(1e12, 1.0, 1.0)
        sched = scalar_schedule(1.0, 1.0, 40)
        sol = RiccatiSolution(
            np.ones((40, 1, 1)), np.zeros((39, 1, 1)), sched
        )
        with pytest.raises(TrajectoryOverflowError) as info:
            rollout(sys_, sol, [1.0])
        assert 0 < info.value.time_index < 40


class TestBruteForceOracle:
    def test_two_step_hand_solution(self):
        sys_ = scalar_system(1.0, 1.0)
        traj = brute_force_lqr_oracle(sys_, scalar_schedule(1.0, 1.0, 2))
        assert traj.u[0][0] == pytest.approx(-0.5)
        assert traj.cost == pytest.approx(1.5)

    def test_matches_riccati_rollout(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sys_, sched = random_problem(rng)
            sol = backward_riccati(sys_, sched)
            mine = rollout(sys_, sol, sys_.x0)
            ref = brute_force_lqr_oracle(sys_, sched)
            np.testing.assert_allclose(mine.u, ref.u, rtol=1e-8, atol=1e-10)
            assert mine.cost == pytest.approx(ref.cost, rel=1e-8)

    def test_cost_continuity_in_disturbance(self):
        sys_ = scalar_system(0.8, 1.0)
        sched = scalar_schedule(1.0, 1.0, 4)
        base = brute_force_lqr_oracle(sys_, sched).cost
        w = 1e-7 * np.ones((3, 1))
        perturbed = brute_force_lqr_oracle(sys_, sched, w).cost
        assert perturbed == pytest.approx(base, abs=1e-4)

    def test_size_cap(self):
        sys_ = scalar_system(0.5, 1.0)
        sched = scalar_schedule(1.0, 1.0, 65)
        with pytest.raises(OracleSizeError):
            brute_force_lqr_oracle(sys_, sched)


class TestFrozenBackwardSweep:
    def test_matches_sequential_passes(self):
        rng = np.random.default_rng(12)
        bounds = CostBounds(
            0.5 * np.eye(3), 2.0 * np.eye(3), [[0.4]], [[1.5]]
        )
        sys_ = random_controllable_system(3, 1, -1.0, 1.0, rng)
        sched = random_uniform_schedule(bounds, 12, rng)
        P_all, K_all = frozen_backward_sweep(sys_, sched)
        assert P_all.shape == (12, 12, 3, 3) and K_all.shape == (12, 11, 1, 3)
        for s in range(12):
            ref = backward_riccati(sys_, frozen_schedule(sched, s, 0))
            np.testing.assert_allclose(P_all[s], ref.P, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(K_all[s], ref.K, rtol=1e-9, atol=1e-12)


class TestScheduleCost:
    def test_zero_trajectory(self):
        sched = scalar_schedule(1.0, 1.0, 3)
        assert schedule_cost(np.zeros((3, 1)), np.zeros((2, 1)), sched) == 0.0

    def test_length_validation(self):
        sched = scalar_schedule(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            schedule_cost(np.zeros((2, 1)), np.zeros((2, 1)), sched)
