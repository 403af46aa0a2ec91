import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import preview_lqr.policies
from preview_lqr.costs import (
    CostBounds,
    CostSchedule,
    frozen_schedule,
    random_uniform_schedule,
)
from preview_lqr.policies import (
    FrozenPlanner,
    PolicyConfig,
    PreviewLengthError,
    baseline_law,
    check_preview_length,
    clairvoyant_policy,
    mpc_baseline_policy,
    prediction_tracking_policy,
    validate_policy_config,
)
from preview_lqr.riccati import (
    TrajectoryOverflowError,
    backward_riccati,
    brute_force_lqr_oracle,
    frozen_backward_sweep,
    riccati_step,
    rollout,
    schedule_cost,
    solve_dare,
)
from preview_lqr.systems import (
    LinearSystem,
    inverted_pendulum,
    place_poles_single_input,
    random_controllable_system,
)
from preview_lqr.verification import frozen_values


def scalar_system(a, b, x0=1.0):
    return LinearSystem([[a]], [[b]], [x0])


def scalar_schedule(q, r, T):
    return CostSchedule(
        tuple(np.array([[q]]) for _ in range(T)),
        tuple(np.array([[r]]) for _ in range(T - 1)),
    )


def varying_scalar_schedule(rng, T, lo=0.5, hi=3.0):
    bounds = CostBounds(
        lo * np.eye(1), hi * np.eye(1), [[0.4]], [[1.8]]
    )
    return random_uniform_schedule(bounds, T, rng)


class TestClairvoyant:
    def test_zero_regret_against_itself(self):
        rng = np.random.default_rng(0)
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched = varying_scalar_schedule(rng, 6)
        traj = clairvoyant_policy(sys_, sched)
        again = clairvoyant_policy(sys_, sched)
        assert traj.cost == again.cost

    def test_two_step_control(self):
        sys_ = scalar_system(1.0, 1.0, 3.0)
        traj = clairvoyant_policy(sys_, scalar_schedule(1.0, 1.0, 2))
        assert traj.u[0][0] == pytest.approx(-0.5 * 3.0)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            T = int(rng.integers(2, 8))
            sys_ = random_controllable_system(
                n, 1, -1.5, 1.5, rng, x0=rng.standard_normal(n)
            )
            sched = CostSchedule(
                tuple(np.eye(n) * (0.5 + rng.random()) for _ in range(T)),
                tuple(np.array([[0.5 + rng.random()]]) for _ in range(T - 1)),
            )
            w = rng.standard_normal((T - 1, n))
            mine = clairvoyant_policy(sys_, sched, w)
            ref = brute_force_lqr_oracle(sys_, sched, w)
            np.testing.assert_allclose(mine.u, ref.u, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("m", [1, 2])
    def test_zero_disturbance_is_the_undisturbed_run(self, m):
        # An all-zero w of either sign gives the w=None cost bit for bit and
        # equal states and controls, and both are the rollout of the true
        # pass's gains.
        rng = np.random.default_rng(10 + m)
        for _ in range(10):
            n, T = int(rng.integers(m, 5)), int(rng.integers(2, 30))
            sys_ = random_controllable_system(n, m, -1.5, 1.5, rng, x0=rng.standard_normal(n))
            bounds = CostBounds(0.5 * np.eye(n), 3.0 * np.eye(n), 0.4 * np.eye(m), 1.8 * np.eye(m))
            sched = random_uniform_schedule(bounds, T, rng)
            plain = clairvoyant_policy(sys_, sched)
            ref = rollout(sys_, backward_riccati(sys_, sched), sys_.x0)
            assert plain.cost.hex() == ref.cost.hex()
            for zero in (np.zeros((T - 1, n)), np.full((T - 1, n), -0.0)):
                traj = clairvoyant_policy(sys_, sched, zero)
                assert traj.cost.hex() == plain.cost.hex()
                np.testing.assert_array_equal(traj.x, plain.x)
                np.testing.assert_array_equal(traj.u, plain.u)
                np.testing.assert_array_equal(traj.u, ref.u)

    def test_no_feedforward_without_disturbances(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("affine_terms ran without disturbances")

        monkeypatch.setattr(preview_lqr.policies, "affine_terms", refuse)
        rng = np.random.default_rng(12)
        sys_ = random_controllable_system(3, 1, -1.5, 1.5, rng, x0=rng.standard_normal(3))
        bounds = CostBounds(0.5 * np.eye(3), 3.0 * np.eye(3), [[0.4]], [[1.8]])
        sched = random_uniform_schedule(bounds, 9, rng)
        sol = backward_riccati(sys_, sched)
        traj = clairvoyant_policy(sys_, sched, solution=sol)
        assert traj.cost.hex() == rollout(sys_, sol, sys_.x0).cost.hex()
        with pytest.raises(AssertionError, match="affine_terms"):
            clairvoyant_policy(sys_, sched, np.zeros((8, 3)), solution=sol)


class TestPredictTrajectory:
    """The single-time plan, ``FrozenPlanner.plan(t, W, known_w)``."""

    def test_full_preview_equals_clairvoyant(self):
        rng = np.random.default_rng(2)
        sys_ = scalar_system(0.7, 1.0, 1.5)
        sched = varying_scalar_schedule(rng, 7)
        opt = clairvoyant_policy(sys_, sched)
        xs, us = FrozenPlanner(sys_, sched).plan(2, 5)
        np.testing.assert_allclose(xs, opt.x, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(us, opt.u, rtol=1e-12, atol=1e-14)

    def test_constant_schedule_equals_clairvoyant(self):
        sys_ = scalar_system(0.7, 1.0, 1.5)
        sched = scalar_schedule(1.0, 1.0, 8)
        opt = clairvoyant_policy(sys_, sched)
        xs, us = FrozenPlanner(sys_, sched).plan(1, 0)
        np.testing.assert_allclose(xs, opt.x, rtol=1e-12, atol=1e-14)

    def test_matches_oracle_on_frozen_problem(self):
        rng = np.random.default_rng(3)
        sys_ = scalar_system(0.9, 1.0, 2.0)
        sched = varying_scalar_schedule(rng, 5)
        xs, us = FrozenPlanner(sys_, sched).plan(1, 0)
        ref = brute_force_lqr_oracle(sys_, frozen_schedule(sched, 1, 0))
        np.testing.assert_allclose(us, ref.u, rtol=1e-8)

    def test_disturbance_prefix_matches_oracle(self):
        rng = np.random.default_rng(4)
        sys_ = scalar_system(0.9, 1.0, 2.0)
        sched = varying_scalar_schedule(rng, 6)
        w = rng.standard_normal((5, 1))
        t = 2
        planned_w = np.zeros((5, 1))
        planned_w[: t + 1] = w[: t + 1]
        planner = FrozenPlanner(sys_, sched)
        xs, us = planner.plan(t, 1, known_w=w)
        ref = brute_force_lqr_oracle(sys_, frozen_schedule(sched, t, 1), planned_w)
        np.testing.assert_allclose(us, ref.u, rtol=1e-8)
        # Passing only the revealed prefix rows gives the same plan.
        xs2, us2 = planner.plan(t, 1, known_w=w[: t + 1])
        np.testing.assert_array_equal(us2, us)

    def test_rejects_bad_time(self):
        sys_ = scalar_system(0.5, 1.0)
        planner = FrozenPlanner(sys_, scalar_schedule(1.0, 1.0, 4))
        for t in (-1, 3):
            with pytest.raises(ValueError, match="t must be an integer with 0 <= t <= T - 2 = 2, got"):
                planner.plan(t, 0)
        with pytest.raises(PreviewLengthError, match="W must be a nonnegative integer"):
            planner.plan(0, -1)

    def test_zero_preview_reads_only_revealed_entries(self):
        # With W = 0 the plan at time t may depend on Q[j], R[j] for j <= t
        # only: replacing every later entry leaves it bit for bit unchanged.
        rng = np.random.default_rng(5)
        sys_ = scalar_system(0.8, 1.0, 1.0)
        base = varying_scalar_schedule(rng, 9)
        for t in (0, 3, 6):
            other = varying_scalar_schedule(rng, 9)
            mixed = CostSchedule(
                np.concatenate([base.Q[: t + 1], other.Q[t + 1 :]]),
                np.concatenate([base.R[: t + 1], other.R[t + 1 :]]),
            )
            xs, us = FrozenPlanner(sys_, base).plan(t, 0)
            xs2, us2 = FrozenPlanner(sys_, mixed).plan(t, 0)
            np.testing.assert_array_equal(xs2, xs)
            np.testing.assert_array_equal(us2, us)


class TestPredictionTracking:
    def test_full_preview_near_zero_regret(self):
        rng = np.random.default_rng(6)
        sys_ = scalar_system(0.9, 1.0, 2.0)
        T = 12
        sched = varying_scalar_schedule(rng, T)
        K = place_poles_single_input(sys_, [0.1])
        traj = prediction_tracking_policy(sys_, sched, PolicyConfig(T - 2, K))
        opt = clairvoyant_policy(sys_, sched)
        assert abs(traj.cost - opt.cost) <= 1e-8 * max(1.0, opt.cost)

    def test_constant_schedule_zero_regret_any_preview(self):
        sys_ = scalar_system(0.9, 1.0, 2.0)
        sched = scalar_schedule(1.2, 0.9, 15)
        K = place_poles_single_input(sys_, [0.1])
        opt = clairvoyant_policy(sys_, sched)
        for W in (0, 3, 9):
            traj = prediction_tracking_policy(sys_, sched, PolicyConfig(W, K))
            assert abs(traj.cost - opt.cost) <= 1e-10 * max(1.0, opt.cost)

    def test_trajectory_replay_invariant(self):
        rng = np.random.default_rng(7)
        sys_ = inverted_pendulum()
        bounds = CostBounds(8e3 * np.eye(4), 3.2e4 * np.eye(4), [[2e3]], [[9.8e4]])
        sched = random_uniform_schedule(bounds, 20, rng)
        K = place_poles_single_input(sys_, (1e-3, 6e-3, 4e-3, 3e-3))
        w = rng.standard_normal((19, 4))
        traj = prediction_tracking_policy(sys_, sched, PolicyConfig(4, K), w)
        for t in range(19):
            expected = sys_.A @ traj.x[t] + sys_.B @ traj.u[t] + w[t]
            np.testing.assert_allclose(traj.x[t + 1], expected, rtol=1e-12, atol=1e-12)

    def test_planner_reuse_is_transparent(self):
        rng = np.random.default_rng(8)
        sys_ = scalar_system(0.9, 1.0, 2.0)
        sched = varying_scalar_schedule(rng, 10)
        K = place_poles_single_input(sys_, [0.1])
        planner = FrozenPlanner(sys_, sched)
        a = prediction_tracking_policy(sys_, sched, PolicyConfig(2, K), planner=planner)
        b = prediction_tracking_policy(sys_, sched, PolicyConfig(2, K))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)

    def test_config_validation(self):
        sys_ = scalar_system(0.9, 1.0)
        sched = scalar_schedule(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            prediction_tracking_policy(sys_, sched, PolicyConfig(4, [[0.0]]))
        with pytest.raises(ValueError, match="stabilize"):
            prediction_tracking_policy(sys_, sched, PolicyConfig(1, [[0.2]]))
        with pytest.raises(ValueError):
            PolicyConfig(-1, [[0.0]])

    def test_validate_policy_config_shape(self):
        sys_ = inverted_pendulum()
        with pytest.raises(ValueError, match="shape"):
            validate_policy_config(PolicyConfig(2, [[0.0]]), sys_, 10)


class TestMpcBaseline:
    def test_full_window_equals_clairvoyant(self):
        rng = np.random.default_rng(9)
        sys_ = scalar_system(1.0, 1.0, 2.0)
        T = 30
        sched = varying_scalar_schedule(rng, T)
        bounds = CostBounds(0.5 * np.eye(1), 3.0 * np.eye(1), [[0.4]], [[1.8]])
        traj = mpc_baseline_policy(sys_, sched, bounds, T - 2)
        opt = clairvoyant_policy(sys_, sched)
        assert traj.cost == pytest.approx(opt.cost, rel=1e-9)

    def test_constant_max_costs_approach_fixed_point_gain(self):
        sys_ = scalar_system(0.9, 1.0, 2.0)
        T = 40
        q_max, r_max = 3.0, 1.8
        sched = scalar_schedule(q_max, r_max, T)
        bounds = CostBounds(0.5 * np.eye(1), q_max * np.eye(1), [[0.4]], [[r_max]])
        P = solve_dare(sys_.A, sys_.B, bounds.Q_max, bounds.R_max)
        gain = (sys_.B.T @ P @ sys_.A) / (bounds.R_max + sys_.B.T @ P @ sys_.B)
        K_inf = -float(gain[0, 0])
        traj = mpc_baseline_policy(sys_, sched, bounds, 5)
        # Mid-horizon the applied control is the stationary feedback.
        mid = T // 2
        assert traj.u[mid][0] == pytest.approx(K_inf * traj.x[mid][0], rel=1e-6)

    def test_rejects_bad_window(self):
        sys_ = scalar_system(0.9, 1.0)
        sched = scalar_schedule(1.0, 1.0, 5)
        bounds = CostBounds(0.5 * np.eye(1), 3.0 * np.eye(1), [[0.4]], [[1.8]])
        with pytest.raises(ValueError):
            mpc_baseline_policy(sys_, sched, bounds, 4)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 2),
        st.integers(3, 40).flatmap(
            lambda T: st.tuples(
                st.just(T), st.sampled_from([0, T - 2]) | st.integers(0, T - 2)
            )
        ),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @example(4, 2, (40, 38), 0, True)
    @example(1, 1, (3, 0), 1, False)
    def test_matches_per_window_loop(self, n, m, T_W, seed, noisy):
        T, W = T_W
        sys_, sched, rng = random_instance(seed, n, m, T)
        bounds = CostBounds(0.2 * np.eye(n), 4.0 * np.eye(n), 0.2 * np.eye(m), 4.0 * np.eye(m))
        w = rng.standard_normal((T - 1, n)) if noisy else None
        traj = mpc_baseline_policy(sys_, sched, bounds, W, w)
        ref_x, ref_u = per_window_mpc(sys_, sched, bounds, W, w)
        np.testing.assert_array_equal(traj.x, ref_x)
        np.testing.assert_array_equal(traj.u, ref_u)
        assert traj.cost == schedule_cost(ref_x, ref_u, sched)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 2),
        st.integers(3, 40).flatmap(
            lambda T: st.tuples(
                st.just(T), st.lists(st.sampled_from([0, T - 2]) | st.integers(0, T - 2), max_size=6)
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    @example(4, 2, (40, [0, 38, 5]), 0)
    @example(2, 1, (12, []), 1)
    @example(1, 1, (3, [1, 0, 1]), 2)
    def test_levels_match_per_w_builder(self, n, m, T_Ws, seed):
        # Every W's law from the one level recursion equals that W's own build,
        # bit for bit.
        T, Ws = T_Ws
        sys_, sched, _ = random_instance(seed, n, m, T)
        P_max = solve_dare(sys_.A, sys_.B, 4.0 * np.eye(n), 4.0 * np.eye(m))
        got = baseline_law(sys_, sched, Ws, P_max)
        assert len(got) == len(Ws)
        for W, law in zip(Ws, got):
            for a, b in zip(law, per_w_baseline_law(sys_, sched, W, P_max)):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def per_w_baseline_law(sys_, schedule, W, P_max):
    """One W's baseline law built alone: the full windows t <= T-2-W as one
    batch of W+1 steps from P_max, the truncated ones from a backward pass
    on the schedule's last W stages."""
    T = schedule.horizon
    full = T - 1 - W
    P = np.asarray(P_max, dtype=float)
    Q, R = (np.moveaxis(M, 0, -1) for M in (schedule.Q, schedule.R))
    for j in range(W, -1, -1):
        P, K = riccati_step(P, sys_.A, sys_.B, Q[..., j : j + full], R[..., j : j + full])
    gains = np.empty((T - 1, sys_.m, sys_.n))
    gains[:full] = K.transpose(2, 0, 1)
    if W > 0:
        tail = CostSchedule(schedule.Q[full:], schedule.R[full:], validate=False)
        gains[full:] = backward_riccati(sys_, tail).K
    return gains, np.zeros((T - 1, sys_.n)), np.full((T - 1, sys_.m), -0.0)


def per_window_mpc(sys_, schedule, bounds, W, w):
    """The baseline as one backward solve per window, then the closed loop."""
    T = schedule.horizon
    A, B = sys_.A, sys_.B
    n, m = sys_.n, sys_.m
    P_max = solve_dare(A, B, bounds.Q_max, bounds.R_max)
    # Each step forms W'P, then (W'P) W, with W = [A | B].
    Wab = np.hstack([A, B])
    gains = []
    for t in range(T - 1):
        if t + W + 1 > T - 1:
            last_stage = T - 2
            P = np.asarray(schedule.Q[T - 1], dtype=float)
        else:
            last_stage = t + W
            P = P_max
        for k in range(last_stage, t - 1, -1):
            M = (Wab.T @ P) @ Wab
            APA, APB, BPA, BPB = M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:]
            G = schedule.R[k] + BPB
            if m == 1:
                Kk = BPA / (-G[0, 0])
            else:
                Kk = -np.linalg.solve(G, BPA)
            # A'PB K as a sum of unfused outer products.
            APBK = np.outer(APB[:, 0], Kk[0])
            for j in range(1, m):
                APBK = APBK + np.outer(APB[:, j], Kk[j])
            P = APA + schedule.Q[k] + APBK
            P = 0.5 * (P + P.T)
        gains.append(Kk)
    w = np.zeros((T - 1, sys_.n)) if w is None else w
    x = np.zeros((T, sys_.n))
    u = np.zeros((T - 1, sys_.m))
    x[0] = sys_.x0
    for t in range(T - 1):
        u[t] = gains[t] @ x[t]
        x[t + 1] = A @ x[t] + B @ u[t] + w[t]
    return x, u


def _exploding_instance():
    # Two near-maximal disturbances in a row push the state past the
    # largest float, whatever the controller does.
    sys_ = scalar_system(2.0, 1.0, 1.0)
    T = 12
    w = np.zeros((T - 1, 1))
    w[4] = w[5] = 1.7e308
    return sys_, scalar_schedule(1.0, 1.0, T), w


@pytest.mark.parametrize(
    "run, time_index",
    [
        (lambda s, sch, w: rollout(s, backward_riccati(s, sch), s.x0, w), 6),
        (
            lambda s, sch, w: prediction_tracking_policy(
                s, sch, PolicyConfig(3, place_poles_single_input(s, [0.1])), w
            ),
            5,
        ),
        (
            lambda s, sch, w: mpc_baseline_policy(
                s, sch, CostBounds(0.5 * np.eye(1), 3.0 * np.eye(1), [[0.4]], [[1.8]]), 3, w
            ),
            6,
        ),
    ],
    ids=["rollout", "tracking", "mpc"],
)
def test_closed_loops_report_overflow_step(run, time_index):
    sys_, sched, w = _exploding_instance()
    with pytest.raises(TrajectoryOverflowError) as info:
        run(sys_, sched, w)
    assert info.value.time_index == time_index
    assert str(info.value) == f"non-finite state at time index {time_index}"


# Differences are measured against the size of the reference plan: an entry
# that passes near zero still carries the rounding of the whole plan.
PLAN_RTOL = 1e-10

plan_settings = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def random_pd(rng, k):
    M = rng.standard_normal((k, k))
    return M @ M.T / k + 0.3 * np.eye(k)


def random_instance(seed, n, m, T):
    rng = np.random.default_rng(seed)
    sys_ = random_controllable_system(n, m, -1.2, 1.2, rng, x0=rng.standard_normal(n))
    sched = CostSchedule(
        tuple(random_pd(rng, n) for _ in range(T)),
        tuple(random_pd(rng, m) for _ in range(T - 1)),
    )
    return sys_, sched, rng


@st.composite
def horizons(draw, max_m=1):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, max_m))
    T = draw(st.integers(3, 60))
    W = draw(st.sampled_from([0, T - 2]) | st.integers(0, T - 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, m, T, W, seed


def assert_plan_row_close(actual, full_ref, t):
    scale = np.abs(full_ref).max()
    assert np.abs(actual - full_ref[t]).max() <= PLAN_RTOL * scale


def unbatched_plan_points(sys_, sched, W, w):
    """The noisy rows of ``plan_points`` as written before it took a trials axis."""
    T = sched.horizon
    t_all = np.arange(T - 1)
    s_of = np.minimum(t_all + W, T - 1)
    K, _, _, (k,) = frozen_backward_sweep(sys_, sched, w, [W])
    X, U = np.empty((T - 1, sys_.n)), np.empty((T - 1, sys_.m))
    AT, BT = sys_.A.T.copy(), sys_.B.T.copy()
    x = np.tile(sys_.x0, (T - 1, 1))
    for i in range(T - 1):
        u = np.einsum("jmn,jn->jm", K[s_of[i:], i], x[i:]) + k[i, i:]
        X[i], U[i] = x[i], u[0]
        x[i:] = x[i:] @ AT + u @ BT + w[i]
    return X, U


class TestPlanPoints:
    @plan_settings
    @given(horizons(max_m=2), st.integers(0, 59))
    @example((4, 1, 3, 0, 0), 0)
    @example((4, 2, 60, 58, 1), 5)
    def test_matches_per_step_plans(self, dims, zero_rows):
        n, m, T, W, seed = dims
        sys_, sched, rng = random_instance(seed, n, m, T)
        w = rng.standard_normal((T - 1, n))
        # Plans whose disturbance prefix is zero are nominal plans.
        zero_rows = min(zero_rows, T - 1)
        w[:zero_rows] = 0.0
        planner = FrozenPlanner(sys_, sched, w, [W])
        X, U = planner.plan_points(W)
        for t in range(T - 1):
            xs, us = planner.plan(t, W, w)
            assert_plan_row_close(X[t], xs, t)
            assert_plan_row_close(U[t], us, t)

    @plan_settings
    @given(horizons())
    def test_noisy_tracking_matches_per_step_loop(self, dims):
        n, _, T, W, seed = dims
        sys_, sched, rng = random_instance(seed, n, 1, T)
        w = rng.standard_normal((T - 1, n))
        K = place_poles_single_input(sys_, np.linspace(0.02, 0.3, n))
        traj = prediction_tracking_policy(sys_, sched, PolicyConfig(W, K), w)
        planner = FrozenPlanner(sys_, sched)
        x = np.zeros((T, n))
        x[0] = sys_.x0
        for t in range(T - 1):
            xs, us = planner.plan(t, W, w)
            u = K @ (x[t] - xs[t]) + us[t]
            np.testing.assert_allclose(
                traj.u[t], u, rtol=0, atol=PLAN_RTOL * np.abs(traj.u).max()
            )
            x[t + 1] = sys_.A @ x[t] + sys_.B @ u + w[t]
        np.testing.assert_allclose(traj.x, x, rtol=0, atol=PLAN_RTOL * np.abs(x).max())

    @plan_settings
    @given(horizons(), st.data())
    def test_plan_point_ignores_unrevealed_information(self, dims, data):
        # Plan t may read w[0..t] and the schedule up to t + W only. The
        # batch holds every plan's data at once, so changing what plan t
        # must not see has to leave its rows bit for bit unchanged.
        n, _, T, W, seed = dims
        t = data.draw(st.integers(0, T - 2), label="t")
        sys_, sched, rng = random_instance(seed, n, 1, T)
        w = rng.standard_normal((T - 1, n))
        X, U = FrozenPlanner(sys_, sched, w, [W]).plan_points(W)
        w2 = w.copy()
        w2[t + 1 :] = 10.0 * rng.standard_normal((T - 2 - t, n))
        cut = t + W + 1
        sched2 = CostSchedule(
            tuple(sched.Q[:cut]) + tuple(10.0 * random_pd(rng, n) for _ in sched.Q[cut:]),
            tuple(sched.R[:cut]) + tuple(10.0 * random_pd(rng, 1) for _ in sched.R[cut:]),
        )
        X2, U2 = FrozenPlanner(sys_, sched2, w2, [W]).plan_points(W)
        np.testing.assert_array_equal(X2[: t + 1], X[: t + 1])
        np.testing.assert_array_equal(U2[: t + 1], U[: t + 1])

    @plan_settings
    @given(horizons(max_m=2))
    def test_noise_free_rows_are_the_cached_plans(self, dims):
        n, m, T, W, seed = dims
        sys_, sched, _ = random_instance(seed, n, m, T)
        planner = FrozenPlanner(sys_, sched)
        for w in (None, np.zeros((T - 1, n))):
            X, U = FrozenPlanner(sys_, sched, w, [W]).plan_points(W)
            for t in range(T - 1):
                xs, us = planner.plan(t, W)
                np.testing.assert_array_equal(X[t], xs[t])
                np.testing.assert_array_equal(U[t], us[t])

    @plan_settings
    @given(horizons(max_m=2), st.lists(st.booleans(), min_size=1, max_size=5))
    @example((1, 1, 3, 0, 0), [False])
    @example((4, 2, 60, 58, 1), [True, False, True, False, False])
    def test_trial_batch_matches_per_trial_calls(self, dims, zero):
        # Each trial's rows are those of its own (T-1, n) call, and those of
        # the unbatched loop, bit for bit; a trial with an all-zero w, of
        # either sign, gets the cached rows.
        n, m, T, W, seed = dims
        sys_, sched, rng = random_instance(seed, n, m, T)
        trials = len(zero)
        w = rng.standard_normal((trials, T - 1, n))
        w[np.array(zero)] = np.where(rng.random((T - 1, n)) < 0.5, 0.0, -0.0)
        X, U = FrozenPlanner(sys_, sched, w, [W]).plan_points(W)
        assert (X.shape, U.shape) == ((trials, T - 1, n), (trials, T - 1, m))
        nominal = [a.tobytes() for a in FrozenPlanner(sys_, sched).plan_points(W)]
        for t in range(trials):
            ref = [a.tobytes() for a in FrozenPlanner(sys_, sched, w[t], [W]).plan_points(W)]
            assert [X[t].tobytes(), U[t].tobytes()] == ref
            if zero[t]:
                assert ref == nominal
            else:
                assert ref == [a.tobytes() for a in unbatched_plan_points(sys_, sched, W, w[t])]

    def test_rejects_bad_disturbance_shape(self):
        sys_ = scalar_system(0.9, 1.0)
        sched = scalar_schedule(1.0, 1.0, 5)
        with pytest.raises(ValueError, match="shape"):
            FrozenPlanner(sys_, sched, np.ones((3, 1)), [1])
        for bad in (np.ones((2, 3, 1)), np.ones((4,)), np.ones((1, 2, 4, 1))):
            with pytest.raises(ValueError, match="shape"):
                FrozenPlanner(sys_, sched, bad, [1])

    def test_rejects_a_preview_it_was_not_asked_for(self):
        sys_ = scalar_system(0.9, 1.0)
        planner = FrozenPlanner(sys_, scalar_schedule(1.0, 1.0, 5), np.ones((4, 1)), [1])
        planner.plan_points(1)
        with pytest.raises(ValueError, match="without W = 2 among its Ws"):
            planner.plan_points(2)
        with pytest.raises(ValueError, match="build it with w"):
            prediction_tracking_policy(sys_, planner.schedule, PolicyConfig(1, [[0.1]]), planner.w, planner)


class TestFrozenPlanner:
    @plan_settings
    @given(horizons(max_m=2))
    def test_stacks_match_single_passes(self, dims):
        n, m, T, _, seed = dims
        sys_, sched, _ = random_instance(seed, n, m, T)
        planner = FrozenPlanner(sys_, sched)

        def assert_rel_close(actual, ref):
            assert np.abs(actual - ref).max() <= 1e-9 * np.abs(ref).max()

        planner.prepare()
        P = frozen_values(sys_, sched)
        for s in range(T):
            ref = backward_riccati(sys_, frozen_schedule(sched, s, 0))
            np.testing.assert_array_equal(P[s], ref.P)
            np.testing.assert_array_equal(planner.K[s], ref.K)
            traj = rollout(sys_, ref, sys_.x0)
            xs, us = planner.nominal_plan(s)
            assert_rel_close(xs, traj.x)
            assert_rel_close(us, traj.u)
        sol = planner.solution()
        np.testing.assert_array_equal(sol.P, ref.P)
        np.testing.assert_array_equal(sol.K, ref.K)
        assert sol.schedule is sched

    def test_cached_plans_are_read_only(self):
        sys_, sched, _ = random_instance(3, 2, 1, 12)
        planner = FrozenPlanner(sys_, sched)
        rows = planner.plan_points(2)[0].copy()
        xs, us = planner.nominal_plan(5)
        with pytest.raises(ValueError):
            xs[3] = 0.0
        with pytest.raises(ValueError):
            us[3] = 0.0
        np.testing.assert_array_equal(planner.plan_points(2)[0], rows)


class TestPreviewLengthCheck:
    """One rule for W: an integer >= 0, and at most T-2 where a policy runs."""

    def test_rule(self):
        assert check_preview_length(3.0) == 3 and type(check_preview_length(np.int64(3))) is int
        assert check_preview_length(40) == 40 and check_preview_length(18, 20) == 18
        for W, T, message in [
            (-1, None, "W must be a nonnegative integer"),
            (2.5, None, "W must be a nonnegative integer"),
            (2.5, 20, "W must be a nonnegative integer"),
            (19, 20, "W must satisfy 0 <= W <= T - 2 = 18, got 19"),
            (-1, 20, "W must satisfy 0 <= W <= T - 2 = 18, got -1"),
        ]:
            with pytest.raises(PreviewLengthError) as info:
                check_preview_length(W, T)
            assert str(info.value) == message

    @pytest.mark.parametrize("W", [-1, 2.5])
    def test_planner_and_baseline_reject_what_they_cannot_read(self, W):
        # plan_points(-1) read above the stored diagonal and plan_points(2.5)
        # indexed with a float.
        sys_, sched, _ = random_instance(3, 2, 1, 12)
        planner = FrozenPlanner(sys_, sched)
        for call in (lambda: planner.plan_points(W), lambda: planner.plan(1, W)):
            with pytest.raises(PreviewLengthError, match="W must be a nonnegative integer"):
                call()
        P_max = solve_dare(sys_.A, sys_.B, np.eye(2), np.eye(1))
        message = "W must be a nonnegative integer" if W == 2.5 else "W must satisfy 0 <= W <= T - 2"
        with pytest.raises(PreviewLengthError, match=message):
            baseline_law(sys_, sched, [W], P_max)

    def test_planner_clamps_a_preview_beyond_the_horizon(self):
        sys_, sched, _ = random_instance(3, 2, 1, 12)
        planner = FrozenPlanner(sys_, sched)
        for got, ref in zip(planner.plan_points(15), planner.plan_points(11)):
            np.testing.assert_array_equal(got, ref)
        for got, ref in zip(planner.plan(2, 15), planner.nominal_plan(11)):
            np.testing.assert_array_equal(got, ref)


class TestFreezeIndex:
    @pytest.mark.parametrize("s", [-1, -3])
    def test_negative_index_raises(self, s):
        # nominal_plan(-3) returned plan T-3 re-rolled from index -3.
        planner = FrozenPlanner(*random_instance(3, 2, 1, 12)[:2])
        with pytest.raises(ValueError, match=f"freeze index s must be a nonnegative integer, got {s}"):
            planner.nominal_plan(s)

    def test_non_integer_index_or_time_raises(self):
        # nominal_plan(2.5) returned nominal_plan(2)'s rows and plan(1.5, 0)
        # plan(1, 0)'s, through int().
        planner = FrozenPlanner(*random_instance(3, 2, 1, 12)[:2])
        with pytest.raises(ValueError, match="freeze index s must be a nonnegative integer, got 2.5"):
            planner.nominal_plan(2.5)
        for known_w in (None, np.ones((11, 2))):
            with pytest.raises(ValueError, match="t must be an integer with .*, got 1.5"):
                planner.plan(1.5, 0, known_w)
        for got, ref in zip(planner.nominal_plan(np.int64(2)), planner.nominal_plan(2.0)):
            np.testing.assert_array_equal(got, ref)

    def test_index_beyond_the_horizon_reads_the_true_pass(self):
        planner = FrozenPlanner(*random_instance(3, 2, 1, 12)[:2])
        for got, ref in zip(planner.nominal_plan(20), planner.nominal_plan(11)):
            np.testing.assert_array_equal(got, ref)


def full_rollout_plans(sys_, sched):
    """Every frozen pass's nominal plan over the whole horizon, in one batch.

    The rollout ``FrozenPlanner.prepare`` runs before it stops each plan at
    its freeze index, batch-last with the plans along the last axis, kept as
    the reference for the stored rows. Returns X (T, T, n) and U (T, T-1, m),
    plan first.
    """
    K = np.moveaxis(frozen_backward_sweep(sys_, sched)[0], 0, -1)
    T, n, m = sched.horizon, sys_.n, sys_.m
    X = np.empty((T, n, T))
    U = np.empty((T - 1, m, T))
    X[0] = sys_.x0[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(T - 1):
            U[i] = (K[i] * X[i]).sum(axis=1)
            X[i + 1] = sys_.A @ X[i] + (sys_.B[..., None] * U[i]).sum(axis=1)
    return X.transpose(2, 0, 1), U.transpose(2, 0, 1)


def first_bad_stored_index(X):
    """The first t with a non-finite X[s, t] for some s >= t, or None."""
    T = X.shape[0]
    bad = [t for t in range(T) if not np.isfinite(X[t:, t]).all()]
    return bad[0] if bad else None


def stalled_plans_instance():
    # Plans frozen before index 2 see no state cost after it, so they
    # leave the unstable state alone and overflow near t = 28, above
    # their freeze index. Plans frozen at 2..4 see a unit state cost
    # for good and stay bounded. Later plans are steered down by that
    # cost, then left alone from index 5 on, and overflow much later.
    T = 60
    sys_ = scalar_system(2.0, 1.0, 1e300)
    q = np.full(T, 1e-300)
    q[2:5] = 1.0
    sched = CostSchedule(
        tuple(np.array([[v]]) for v in q), tuple(np.eye(1) for _ in range(T - 1))
    )
    return sys_, sched


class TestNominalStep:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
        st.integers(2, 70).flatmap(lambda S: st.tuples(st.just(S), st.integers(0, S - 1))),
        st.integers(2, 70).flatmap(lambda S: st.tuples(st.just(S), st.integers(0, S - 1))),
    )
    @example(1, 2, 0, (2, 1), (3, 0))
    @example(4, 1, 1, (70, 69), (2, 0))
    def test_plan_bits_do_not_depend_on_batch(self, n, m, seed, at, moved):
        # A plan's next control and state are the same advanced alone, on
        # two copies as nominal_plan continues a row, at its position in one
        # batch and at another position in a batch of another width, as
        # prepare advances plans i..T-1. At n = 1, m = 2, B @ u is a gemv.
        (S, b), (S2, b2) = at, moved
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(n, m, -1.5, 1.5, rng)
        K, K2 = (rng.standard_normal((m, n, k)) for k in (S, S2))
        x, x2 = (rng.standard_normal((n, k)) for k in (S, S2))
        K2[..., b2], x2[:, b2] = K[..., b], x[:, b]
        alone = preview_lqr.policies._nominal_step(sys_, K[..., b, None], np.stack([x[:, b]] * 2, axis=-1), 0)
        for (K_, x_), col in (((K, x), b), ((K2, x2), b2)):
            batched = preview_lqr.policies._nominal_step(sys_, K_, x_, 0)
            for got, want in zip(batched, alone):
                np.testing.assert_array_equal(got[:, col], want[:, 0])


class TestPlanStore:
    """Each plan is stored to its freeze index and continued on demand."""

    @plan_settings
    @given(
        st.integers(1, 4), st.integers(1, 2), st.integers(2, 60), st.integers(0, 2**32 - 1)
    )
    @example(1, 1, 2, 0)
    @example(4, 2, 2, 1)
    @example(3, 1, 3, 2)
    @example(2, 2, 3, 3)
    def test_rows_match_full_rollout(self, n, m, T, seed):
        sys_, sched, _ = random_instance(seed, n, m, T)
        planner = FrozenPlanner(sys_, sched)
        X, U = full_rollout_plans(sys_, sched)
        for s in range(T):
            xs, us = planner.nominal_plan(s)
            np.testing.assert_array_equal(xs, X[s])
            np.testing.assert_array_equal(us, U[s])
        t_all = np.arange(T - 1)
        for W in range(T - 1):
            s_of = np.minimum(t_all + W, T - 1)
            xs, us = planner.plan_points(W)
            np.testing.assert_array_equal(xs, X[s_of, t_all])
            np.testing.assert_array_equal(us, U[s_of, t_all])

    def test_overflow_above_the_diagonal_is_not_read(self):
        sys_, sched = stalled_plans_instance()
        X, _ = full_rollout_plans(sys_, sched)
        first_any = int(np.argwhere(~np.isfinite(X).all(axis=(0, 2)))[0, 0])
        first_stored = first_bad_stored_index(X)
        assert first_any < first_stored
        planner = FrozenPlanner(sys_, sched)
        with pytest.raises(TrajectoryOverflowError) as info:
            planner.prepare()
        assert info.value.time_index == first_stored
        assert str(info.value) == "non-finite planned state"

    def test_prepare_succeeds_when_only_continuations_overflow(self):
        sys_, sched = stalled_plans_instance()
        # Cut before the later plans overflow: only plans 0 and 1 do.
        sched = CostSchedule(sched.Q[:34], sched.R[:33])
        X, U = full_rollout_plans(sys_, sched)
        assert first_bad_stored_index(X) is None
        planner = FrozenPlanner(sys_, sched)
        planner.prepare()
        overflowing = 0
        for s in range(sched.horizon):
            if np.isfinite(X[s]).all():
                xs, us = planner.nominal_plan(s)
                np.testing.assert_array_equal(xs, X[s])
                np.testing.assert_array_equal(us, U[s])
                continue
            overflowing += 1
            bad = int(np.argwhere(~np.isfinite(X[s]).all(axis=1))[0, 0])
            with pytest.raises(TrajectoryOverflowError) as info:
                planner.nominal_plan(s)
            assert info.value.time_index == bad
        assert overflowing == 2

    def test_prepare_allocates_only_the_stacks(self):
        # A full-size mask or copy of the plan stacks would show here, and
        # so would a (T, T, n, n) value stack, which a noise-free planner
        # does not keep.
        sys_, sched, _ = random_instance(5, 4, 1, 300)
        planner = FrozenPlanner(sys_, sched)
        tracemalloc.start()
        try:
            planner.prepare()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stacks = (planner.K, planner.X, planner.U, planner.P_true, planner.apa_max)
        assert peak <= 1.1 * sum(a.nbytes for a in stacks)

    def test_noisy_prepare_keeps_no_value_stack(self):
        # Streaming one W's plans for two trials adds their feedforward, 1.4
        # MB here, not the (T, T, n, n) value stack of 11.5 MB the plans once
        # read; the gains, nominal plans, true pass and maxima stay the same.
        sys_, sched, rng = random_instance(5, 4, 1, 300)
        w = rng.standard_normal((2, 299, 4))
        planners = FrozenPlanner(sys_, sched), FrozenPlanner(sys_, sched, w, [8])
        peaks = []
        for planner in planners:
            tracemalloc.start()
            try:
                planner.prepare()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 4 * 2**20
        for name in ("K", "X", "U", "P_true", "apa_max"):
            np.testing.assert_array_equal(getattr(planners[1], name), getattr(planners[0], name))
