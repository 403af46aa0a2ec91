import os
import subprocess
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preview_lqr.costs import CostSchedule, frozen_schedule, random_uniform_schedule, CostBounds, sequence_extrema
from preview_lqr.experiments import ExperimentConfig, _trial_system, pendulum_cost_bounds
from preview_lqr.policies import clairvoyant_policy
from preview_lqr.riccati import (
    DareConvergenceError,
    OracleSizeError,
    RiccatiSolution,
    Trajectory,
    TrajectoryOverflowError,
    affine_terms,
    backward_riccati,
    brute_force_lqr_oracle,
    frozen_backward_sweep,
    riccati_step,
    rollout,
    schedule_cost,
    simulate,
    solve_dare,
)
from preview_lqr.seeding import generator
from preview_lqr.verification import _instances, frozen_values

from cut_reference import cut_reference
from preview_lqr.systems import LinearSystem, inverted_pendulum, random_controllable_system


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
    """The backward pass written out step by step, W'P first, then (W'P) W, W = [A | B]."""
    A, B = sys_.A, sys_.B
    n, m = sys_.n, sys_.m
    W = np.hstack([A, B])
    T = schedule.horizon
    P = [None] * T
    K = [None] * (T - 1)
    P[T - 1] = np.asarray(schedule.Q[T - 1], dtype=float)
    for i in range(T - 2, -1, -1):
        M = (W.T @ P[i + 1]) @ W
        APA, APB, BPA, BPB = M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:]
        G = schedule.R[i] + BPB
        if m == 1:
            Ki = BPA / (-G[0, 0])
        else:
            Ki = -np.linalg.solve(G, BPA)
        # A'PB K as a sum of outer products, unfused, as the step forms it.
        APBK = np.outer(APB[:, 0], Ki[0])
        for j in range(1, m):
            APBK = APBK + np.outer(APB[:, j], Ki[j])
        Pi = APA + schedule.Q[i] + APBK
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
        P, Q, R = (np.moveaxis(random_pd(rng, k, (batch,)), 0, -1) for k in (n, n, m))
        P_prev, K = riccati_step(P, sys_.A, sys_.B, Q, R)
        assert P_prev.shape == (n, n, batch) and K.shape == (m, n, batch)
        np.testing.assert_array_equal(P_prev, np.swapaxes(P_prev, 0, 1))
        for b in range(batch):
            one = CostSchedule(np.stack([Q[..., b], P[..., b]]), R[None, ..., b], validate=False)
            P_b, K_b = looped_backward_riccati(sys_, one)
            np.testing.assert_array_equal(P_prev[..., b], P_b[0])
            np.testing.assert_array_equal(K[..., b], K_b[0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
        st.integers(1, 70).flatmap(lambda S: st.tuples(st.just(S), st.integers(0, S - 1))),
        st.integers(1, 70).flatmap(lambda S: st.tuples(st.just(S), st.integers(0, S - 1))),
    )
    @example(4, 1, 0, (1, 0), (70, 69))
    @example(1, 2, 1, (2, 1), (1, 0))
    def test_entry_bits_do_not_depend_on_batch(self, n, m, seed, at, moved):
        # An entry's (P, K) is the same alone, at its position in one batch
        # and at another position in a batch of another width. The sweep's
        # pass s equals backward_riccati only because of this.
        (S, b), (S2, b2) = at, moved
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(n, m, -1.5, 1.5, rng)
        P, Q, R = (np.moveaxis(random_pd(rng, k, (S,)), 0, -1) for k in (n, n, m))
        P2, Q2, R2 = (np.moveaxis(random_pd(rng, k, (S2,)), 0, -1) for k in (n, n, m))
        for big, small in ((P2, P), (Q2, Q), (R2, R)):
            big[..., b2] = small[..., b]
        alone = riccati_step(P[..., b], sys_.A, sys_.B, Q[..., b], R[..., b])
        for batched, col in ((riccati_step(P, sys_.A, sys_.B, Q, R), b), (riccati_step(P2, sys_.A, sys_.B, Q2, R2), b2)):
            for got, want in zip(batched, alone):
                np.testing.assert_array_equal(got[..., col], want)
        # baseline_law's first step: one 2-D P against batched Q and R.
        P_max = P[..., b]
        shared = riccati_step(P_max, sys_.A, sys_.B, Q, R)
        for c in range(S):
            for got, want in zip(shared, riccati_step(P_max, sys_.A, sys_.B, Q[..., c], R[..., c])):
                np.testing.assert_array_equal(got[..., c], want)

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


def every_pass(sys_, sched):
    """Every frozen pass's value matrices and gains as the sweep cuts them,
    (T, T, n, n) and (T, T-1, m, n), from the dense loop with the same cuts."""
    P, K, _ = cut_reference(sys_, sched)
    return P.transpose(3, 0, 1, 2), K.transpose(3, 0, 1, 2)


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


def unbatched_affine_terms(sys_, P, K, R, w, s, last):
    """The affine recursion of a batch of plans as written before it took a
    trials axis, one w only: plan j on pass s[j] of the stacks P and K,
    knowing w[0..last[j]], ``last`` ascending."""
    A, B = sys_.A, sys_.B
    n, m = sys_.n, sys_.m
    T = P.shape[1]
    first = np.searchsorted(last, np.arange(T - 1))
    q = np.zeros((len(s), n))
    k = np.zeros((T - 1, len(s), m))
    for i in range(min(int(last[-1]), T - 2), -1, -1):
        j = first[i]
        Pn = P[s[j:], i + 1]
        v = q[j:] + (Pn.reshape(-1, n) @ w[i]).reshape(-1, n)
        Bv = v @ B
        G = R[i] + np.einsum("ni,jnk,kl->jil", B, Pn, B)
        if m == 1:
            k[i, j:] = -Bv / G[:, 0]
        else:
            k[i, j:] = -np.linalg.solve(G, Bv[..., None])[..., 0]
        q[j:] = v @ A + np.einsum("jmn,jm->jn", K[s[j:], i], Bv)
    return k


def clairvoyant_terms(sys_, sched, w):
    return affine_terms(sys_, backward_riccati(sys_, sched), w)


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
        # the frozen sweep's streamed plans (the whole batch, for several W)
        # and FrozenPlanner.plan (batch 1).
        n, m, seed = nms
        T, W = T_W
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(n, m, -1.2, 1.2, rng)
        sched = random_schedule(rng, n, m, T)
        P, K = every_pass(sys_, sched)
        w = rng.standard_normal((T - 1, n))
        w[: min(zero_rows, T - 1)] = 0.0
        t_all = np.arange(T - 1)
        Ws = [W, 0, T - 2]
        streamed = frozen_backward_sweep(sys_, sched, w, Ws)[3]
        for W, batch in zip(Ws, streamed):
            s_of = np.minimum(t_all + W, T - 1)
            assert batch.shape == (T - 1, T - 1, m)
            assert batch.tobytes() == unbatched_affine_terms(sys_, P, K, sched.R, w, s_of, t_all).tobytes()
            for t in t_all:
                ref = looped_affine_terms(sys_, P[s_of[t]], K[s_of[t]], sched.R, w, t)
                single = affine_terms(sys_, backward_riccati(sys_, frozen_schedule(sched, s_of[t], 0)), w, t)
                assert single.shape == (T - 1, m)
                tol = 1e-10 * np.abs(ref).max()
                assert np.abs(batch[:, t] - ref).max() <= tol
                assert np.abs(single - ref).max() <= tol

    @settings(max_examples=60, deadline=None)
    @given(
        dims,
        st.integers(2, 40),
        st.integers(1, 5),
        st.sampled_from([None, 1e160, np.inf, np.nan]),
    )
    @example((4, 2, 0), 40, 5, np.nan)
    @example((1, 1, 1), 2, 1, None)
    def test_trial_batches_match_per_trial_calls(self, nms, T, trials, blow):
        # One plan on one pass, knowing w[0..last]. Each trial's feedforward
        # is its own (T-1, n) call's, and that call's is the unbatched
        # recursion's, bit for bit; a trial blown up to 1e160, inf or NaN
        # leaves every other trial alone.
        n, m, seed = nms
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(n, m, -1.2, 1.2, rng)
        sched = random_schedule(rng, n, m, T)
        last = int(rng.integers(0, T - 1))
        sol = backward_riccati(sys_, frozen_schedule(sched, last + int(rng.integers(0, T - last)), 0))
        w = rng.standard_normal((trials, T - 1, n))
        blown = int(rng.integers(trials))
        if blow is not None:
            w[blown, rng.integers(T - 1), rng.integers(n)] = blow
        with np.errstate(over="ignore", invalid="ignore"):
            batch = affine_terms(sys_, sol, w, last)
            assert batch.shape == (T - 1, trials, m)
            for t in range(trials):
                single = affine_terms(sys_, sol, w[t], last)
                if blow is None or t != blown:
                    assert batch[:, t].tobytes() == single.tobytes()
                    ref = unbatched_affine_terms(sys_, sol.P[None], sol.K[None], sol.schedule.R, w[t], [0], [last])
                    assert single.tobytes() == ref[:, 0].tobytes()
                else:
                    # NumPy's SIMD loops may give a NaN either sign.
                    np.testing.assert_array_equal(batch[:, t], single)

    @settings(max_examples=40, deadline=None)
    @given(
        dims,
        st.integers(2, 30),
        st.integers(1, 4),
        st.sampled_from([None, 1e160, np.inf, np.nan]),
    )
    @example((4, 2, 0), 30, 4, np.nan)
    @example((1, 1, 1), 2, 1, None)
    def test_streamed_trial_batches_match_per_trial_sweeps(self, nms, T, trials, blow):
        # The sweep streams the plans of several W for a batch of trials.
        # Each trial's feedforward is that of a sweep of its own (T-1, n) w,
        # which is the unbatched recursion on every pass, bit for bit; a
        # blown-up trial leaves every other trial alone.
        n, m, seed = nms
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(n, m, -1.2, 1.2, rng)
        sched = random_schedule(rng, n, m, T)
        P, K = every_pass(sys_, sched)
        Ws = [0, int(rng.integers(T - 1)), T + 3]
        w = rng.standard_normal((trials, T - 1, n))
        blown = int(rng.integers(trials))
        if blow is not None:
            w[blown, rng.integers(T - 1), rng.integers(n)] = blow
        t_all = np.arange(T - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = frozen_backward_sweep(sys_, sched, w, Ws)[3]
            for t in range(trials):
                single = frozen_backward_sweep(sys_, sched, w[t], Ws)[3]
                for W, k_batch, k in zip(Ws, batch, single):
                    assert k_batch.shape == (T - 1, trials, T - 1, m)
                    if blow is None or t != blown:
                        assert k_batch[:, t].tobytes() == k.tobytes()
                        s_of = np.minimum(t_all + W, T - 1)
                        ref = unbatched_affine_terms(sys_, P, K, sched.R, w[t], s_of, t_all)
                        assert k.tobytes() == ref.tobytes()
                    else:
                        # NumPy's SIMD loops may give a NaN either sign.
                        np.testing.assert_array_equal(k_batch[:, t], k)

    def test_rejects_bad_disturbance_shape(self):
        sys_ = scalar_system(0.9, 1.0)
        sched = scalar_schedule(1.0, 1.0, 4)
        with pytest.raises(ValueError, match="shape"):
            clairvoyant_terms(sys_, sched, np.ones((4, 1)))
        for bad in (np.ones((2, 4, 1)), np.ones((3,)), np.ones((1, 2, 3, 1))):
            with pytest.raises(ValueError, match="shape"):
                clairvoyant_terms(sys_, sched, bad)


def scipy_seeded_dare(A, B, Q, R, tol=1e-10, max_iter=100000):
    """The solver ``solve_dare`` replaced: scipy's direct solve, refined by
    iterating the Riccati map until its step drops below tol relative or
    stops shrinking below sqrt(tol)."""
    from scipy.linalg import solve_discrete_are

    P = solve_discrete_are(A, B, Q, R)
    P, last = 0.5 * (P + P.T), np.inf
    for _ in range(max_iter):
        Pn, _ = riccati_step(P, A, B, Q, R)
        step, scale = np.linalg.norm(Pn - P, 2), max(1.0, np.linalg.norm(Pn, 2))
        if step <= tol * scale or (step >= last and step <= np.sqrt(tol) * scale):
            return Pn
        P, last = Pn, step
    raise AssertionError("no fixed point")


def newton_dare(A, B, Q, R, P, digits=50):
    """The stabilizing DARE solution to ``digits`` digits, by Hewer's Newton
    iteration from P: each step solves P' = C'P'C + Q + K'RK, C = A + B K
    the closed loop of the previous P, through its Kronecker form."""
    n = len(A)
    with mpmath.workdps(digits):
        A, B, Q, R, P = (mpmath.matrix(np.atleast_2d(M).tolist()) for M in (A, B, Q, R, P))
        for _ in range(20):
            K = -mpmath.inverse(R + B.T * P * B) * (B.T * P * A)
            C, F = A + B * K, Q + K.T * R * K
            L = mpmath.matrix(n * n, n * n)
            for i, j, k, l in np.ndindex(n, n, n, n):
                L[i * n + j, k * n + l] = (i == k and j == l) - C[k, i] * C[l, j]
            v = mpmath.lu_solve(L, mpmath.matrix([F[i, j] for i, j in np.ndindex(n, n)]))
            new = mpmath.matrix(n, n)
            for i, j in np.ndindex(n, n):
                new[i, j] = (v[i * n + j] + v[j * n + i]) / 2
            change = mpmath.mnorm(new - P, 1) / mpmath.mnorm(new, 1)
            P = new
            # Quadratic convergence: the next step would be below 1e-50.
            if change < mpmath.mpf(10) ** (-digits // 2):
                return np.array(P.tolist(), dtype=float)
    raise AssertionError("Newton iteration did not converge")


def dare_cases(kind):
    """(A, B, Q, R) of the DAREs the program solves, of one kind."""
    bounds = pendulum_cost_bounds()
    if kind == "pendulum":
        pend = inverted_pendulum()
        # Criterion 08's first trial: P_max's costs, and Pbar's.
        ext = sequence_extrema(random_uniform_schedule(bounds, 200, generator(3, "pendulum", 200, 0, "schedule")))
        return [(pend.A, pend.B, bounds.Q_max, bounds.R_max), (pend.A, pend.B, ext.Qbar_max, ext.Rbar_max)]
    if kind == "verify":
        return [(i.sys.A, i.sys.B, i.constants.Qbar_max, i.constants.Rbar_max) for i in _instances(0, 20)]
    # The systems of criterion 09's 20 trials, random_controllable_system(4,
    # 1, 0, 10), under P_max's costs: ill-conditioned draws among them.
    cfg = ExperimentConfig(scenario="random", master_seed=0)
    return [(s.A, s.B, bounds.Q_max, bounds.R_max) for s, _ in (_trial_system(cfg, 200, t) for t in range(20))]


def test_import_leaves_scipy_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, preview_lqr; assert 'scipy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestSolveDare:
    @pytest.mark.parametrize("kind", ["pendulum", "verify", "random-grid"])
    def test_at_least_as_accurate_as_the_scipy_seeded_solver(self, kind):
        # Relative errors in the largest entry against a 50-digit solution;
        # below 1e-12 a draw may lose to the old solver's round-off.
        for A, B, Q, R in dare_cases(kind):
            P = solve_dare(A, B, Q, R)
            ref = newton_dare(A, B, Q, R, P)
            err, old = (np.abs(X - ref).max() / np.abs(ref).max() for X in (P, scipy_seeded_dare(A, B, Q, R)))
            assert err <= max(old, 1e-12), (err, old)

    def test_stops_at_the_doubling_cap(self):
        # The uncontrolled mode on the unit circle: H_k = 2^k Q never settles.
        with pytest.raises(DareConvergenceError, match="64 doublings"):
            solve_dare(1.0, 0.0, 1.0, 1.0)

    def test_undetectable_unstable_mode_raises(self):
        # Q = 0 does not see the unstable mode: H stays at the fixed point
        # 0, which does not stabilize, while A_k = 2^(2^k) overflows.
        with pytest.raises(DareConvergenceError, match="non-finite"):
            solve_dare(2.0, 1.0, 0.0, 1.0)

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

    def test_stops_at_its_round_off_noise(self):
        # Random-grid seed 3, T = 60, trial 1: iterated from the solution,
        # the float map's steps drift to 1e-6 relative within 12 steps, far
        # above tol, so a fixed-point stop at tol alone was a lottery (68,468
        # iterations at one rounding, none within 100,000 at another).
        cfg = ExperimentConfig(scenario="random", master_seed=3)
        sys_, _ = _trial_system(cfg, 60, 1)
        sched = random_uniform_schedule(cfg.bounds, 60, generator(3, "random", 60, 1, "schedule"))
        ext = sequence_extrema(sched)
        P = solve_dare(sys_.A, sys_.B, ext.Qbar_max, ext.Rbar_max)
        step = np.linalg.norm(riccati_step(P, sys_.A, sys_.B, ext.Qbar_max, ext.Rbar_max)[0] - P, 2)
        assert step <= 1e-5 * np.linalg.norm(P, 2)

    def test_nonconvergence_raises(self):
        # B = 0 leaves the unstable mode uncontrolled: the doubling's A_k is
        # 2^(2^k), which overflows at the tenth doubling.
        with pytest.raises(DareConvergenceError, match="non-finite"):
            solve_dare(2.0, 0.0, 1.0, 1.0)


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


def callback_simulate(sys_, schedule, control, x0, w=None):
    # The closed loop as written before the array loop: one trajectory, its
    # control from a callback.
    A, B = sys_.A, sys_.B
    T = schedule.horizon
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    w_arr = np.zeros((T - 1, sys_.n)) if w is None else np.asarray(w, dtype=float)
    x = np.zeros((T, sys_.n))
    u = np.zeros((T - 1, sys_.m))
    x[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T - 1):
            ut = control(t, x[t])
            xn = A @ x[t] + B @ ut + w_arr[t]
            if not np.all(np.isfinite(xn)):
                raise TrajectoryOverflowError(t + 1)
            u[t] = ut
            x[t + 1] = xn
        cost = schedule_cost(x, u, schedule)
    if not np.isfinite(cost):
        raise TrajectoryOverflowError(T - 1, "non-finite cost")
    return Trajectory(x, u, cost)


def callback_run(sys_, schedule, L, x0, w=None, r=None, l=None):
    """One trajectory through ``callback_simulate``, controlled as the callers did."""

    def control(t, x):
        K = L if L.ndim == 2 else L[t]
        u = K @ (x if r is None else x - r[t])
        return u if l is None else u + l[t]

    try:
        return callback_simulate(sys_, schedule, control, x0, w)
    except TrajectoryOverflowError as err:
        return err


def assert_same_result(got, ref):
    if isinstance(ref, TrajectoryOverflowError):
        assert isinstance(got, TrajectoryOverflowError)
        assert (got.time_index, str(got)) == (ref.time_index, str(ref))
    else:
        assert isinstance(got, Trajectory)
        # tobytes tells -0.0 from +0.0.
        for a, b in ((got.x, ref.x), (got.u, ref.u), (got.cost, ref.cost)):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def signed_zeros(rng, shape, scale=1.0):
    """Normal draws with about a third of the entries +0.0 or -0.0."""
    a = scale * rng.standard_normal(shape)
    a[rng.random(shape) < 0.3] = 0.0
    return np.where(rng.random(shape) < 0.5, a, -a)


class TestSimulate:
    """The array loop against the callback loop it replaced, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        T=st.integers(2, 60),
        nb=st.integers(1, 5),
        L_kind=st.sampled_from(["const", "shared", "batched"]),
        kinds=st.tuples(*[st.sampled_from([None, "shared", "batched"])] * 3),
        blow=st.sampled_from([None, 1e160, np.inf, np.nan]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_callback_loop(self, n, m, T, nb, L_kind, kinds, blow, seed):
        rng = np.random.default_rng(seed)
        sys_ = random_controllable_system(n, m, -1.2, 1.2, rng, x0=signed_zeros(rng, n))
        Q = signed_zeros(rng, (T, n, n))
        sched = CostSchedule(Q @ Q.swapaxes(1, 2) + np.eye(n), np.tile(np.eye(m), (T - 1, 1, 1)))
        lead = {"shared": (), "batched": (nb,)}
        L = signed_zeros(rng, (m, n) if L_kind == "const" else lead[L_kind] + (T - 1, m, n), 0.5)
        args = {
            name: signed_zeros(rng, lead[kind] + (T - 1, k))
            for name, kind, k in zip("rlw", kinds, (n, m, n))
            if kind is not None
        }
        given_kinds = [L_kind] + [kind for kind in kinds if kind is not None]
        per_entry = [a for a, kind in zip([L, *args.values()], given_kinds) if kind == "batched"]
        if blow is not None and per_entry:
            # One entry of one per-entry argument blows up at one step.
            target = per_entry[rng.integers(len(per_entry))]
            target[rng.integers(nb), rng.integers(T - 1)] = blow
        results = simulate(sys_, sched, L, sys_.x0, args.get("w"), args.get("r"), args.get("l"))
        assert len(results) == (nb if per_entry else 1)
        for b, got in enumerate(results):
            entry = {name: a[b] if a.ndim == 3 else a for name, a in args.items()}
            ref = callback_run(sys_, sched, L[b] if L.ndim == 4 else L, sys_.x0, **entry)
            assert_same_result(got, ref)

    def test_one_overflow_leaves_the_batch_alone(self):
        rng = np.random.default_rng(5)
        sys_ = random_controllable_system(2, 1, -1.0, 1.0, rng)
        T = 30
        sched = CostSchedule(np.tile(np.eye(2), (T, 1, 1)), np.ones((T - 1, 1, 1)))
        L = 0.3 * rng.standard_normal((4, T - 1, 1, 2))
        L[1, 4] = np.inf
        l = np.zeros((4, T - 1, 1))
        l[2, 7] = 1e200  # finite states, non-finite cost
        results = simulate(sys_, sched, L, sys_.x0, l=l)
        assert isinstance(results[0], Trajectory) and isinstance(results[3], Trajectory)
        assert (results[1].time_index, str(results[1])) == (5, "non-finite state at time index 5")
        assert (results[2].time_index, str(results[2])) == (T - 1, "non-finite cost")
        for b, got in enumerate(results):
            assert_same_result(got, callback_run(sys_, sched, L[b], sys_.x0, l=l[b]))

    def test_stops_once_every_trajectory_has_overflowed(self):
        sys_ = scalar_system(2.0, 1.0)
        T = 400
        L = np.zeros((2, T - 1, 1, 1))
        L[:, 2] = np.inf
        lines = Counter()

        def in_simulate(frame, event, arg):
            return count if frame.f_code is simulate.__code__ else None

        def count(frame, event, arg):
            if event == "line":
                lines[frame.f_lineno] += 1
            return count

        sys.settrace(in_simulate)
        try:
            results = simulate(sys_, scalar_schedule(1.0, 1.0, T), L, sys_.x0)
        finally:
            sys.settrace(None)
        assert [err.time_index for err in results] == [3, 3]
        # The loop's busiest line ran a few steps, not the whole horizon.
        assert max(lines.values()) < 20

    def test_shapes_are_checked(self):
        sys_ = random_controllable_system(3, 2, -1.0, 1.0, np.random.default_rng(0))
        sched = CostSchedule(np.tile(np.eye(3), (5, 1, 1)), np.tile(np.eye(2), (4, 1, 1)))
        K = np.zeros((2, 3))
        for bad in (
            dict(L=np.zeros((3, 2))),
            dict(L=np.zeros((5, 2, 3))),
            dict(r=np.zeros((4, 2))),
            dict(l=np.zeros((2, 4, 3))),
            dict(w=np.zeros((5, 3))),
            dict(r=np.zeros((2, 4, 3)), l=np.zeros((3, 4, 2))),
            dict(x0=np.zeros(2)),
        ):
            kwargs = dict(L=K, x0=sys_.x0) | bad
            with pytest.raises(ValueError):
                simulate(sys_, sched, **kwargs)


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
        K_all, top, P_true, k, _ = frozen_backward_sweep(sys_, sched)
        assert k == [] and K_all.shape == (12, 11, 1, 3)
        # The sweep's own steps give every pass's value matrices.
        P_every = frozen_values(sys_, sched)
        for s in range(12):
            ref = backward_riccati(sys_, frozen_schedule(sched, s, 0))
            np.testing.assert_array_equal(P_every[s], ref.P)
            np.testing.assert_array_equal(K_all[s], ref.K)
        np.testing.assert_array_equal(P_true, P_every[11])
        # Streaming plans changes no gain, maximum or true pass.
        K_w, top_w, P_w, k, _ = frozen_backward_sweep(sys_, sched, rng.standard_normal((2, 11, 3)), [0, 4])
        assert [a.shape for a in k] == [(11, 2, 11, 1)] * 2
        for got, ref in ((K_w, K_all), (top_w, top), (P_w, P_true)):
            np.testing.assert_array_equal(got, ref)


def longdouble_sweep(sys_, schedule):
    """Every frozen pass recomputed in long double, the sweep's accuracy
    reference. np.linalg has no long-double solve, so for m = 2 the gain
    uses the closed-form inverse of the 2x2 matrix R + B'PB."""
    ld = np.longdouble
    A, B = sys_.A.astype(ld), sys_.B.astype(ld)
    Q, R = schedule.Q.astype(ld), schedule.R.astype(ld)
    T = schedule.horizon
    P = Q.copy()
    P_every = np.empty((T, T, sys_.n, sys_.n), dtype=ld)
    K_all = np.empty((T, T - 1, sys_.m, sys_.n), dtype=ld)
    P_every[:, T - 1] = P
    for i in range(T - 2, -1, -1):
        c = np.minimum(np.arange(T), i)
        PA, PB = P @ A, P @ B
        G = R[c] + B.T @ PB
        if sys_.m == 1:
            K = -(B.T @ PA) / G
        else:
            a, b, g, d = G[:, 0, 0], G[:, 0, 1], G[:, 1, 0], G[:, 1, 1]
            adj = np.stack([np.stack([d, -b], -1), np.stack([-g, a], -1)], -2)
            K = -(adj / (a * d - b * g)[:, None, None]) @ (B.T @ PA)
        P = A.T @ PA + Q[c] + (A.T @ PB) @ K
        P = 0.5 * (P + np.swapaxes(P, -1, -2))
        P_every[:, i], K_all[:, i] = P, K
    return P_every, K_all


def sweep_error(sys_, schedule):
    """Largest error of any frozen pass of the sweep, relative to the
    largest entry of that pass in the long-double reference; for P and K."""
    errors = []
    for got, ref in zip(every_pass(sys_, schedule), longdouble_sweep(sys_, schedule)):
        axes = tuple(range(1, ref.ndim))
        err = np.abs(got - ref).max(axis=axes) / np.abs(ref).max(axis=axes)
        errors.append(float(err.max()))
    return tuple(errors)


class TestSweepAccuracy:
    @pytest.mark.parametrize("T", [60, 200])
    def test_pendulum_passes_within_1e10(self, T):
        bounds = CostBounds(8e3 * np.eye(4), 3.2e4 * np.eye(4), [[2e3]], [[9.8e4]])
        sched = random_uniform_schedule(bounds, T, np.random.default_rng(T))
        assert max(sweep_error(inverted_pendulum(), sched)) <= 1e-10

    def test_random_passes_within_1e12(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n, m, T = int(rng.integers(1, 5)), int(rng.integers(1, 3)), int(rng.integers(3, 30))
            sys_ = random_controllable_system(n, m, -1.2, 1.2, rng)
            assert max(sweep_error(sys_, random_schedule(rng, n, m, T))) <= 1e-12

    @pytest.mark.parametrize("T, tol_P", [(60, 1e-8), (100, 1e-7)])
    def test_random_grid_passes_at_measured_accuracy(self, T, tol_P):
        # The random grid's trial 0 for seeds 1-7: systems with a top |eig A|
        # of 16 to 26 lose more digits than the pendulum. Measured at most
        # 3.3e-9 in P and 5e-10 in K at T = 60, and 4.6e-8 in P and 2.1e-9
        # in K at T = 100.
        for seed in range(1, 8):
            cfg = ExperimentConfig(scenario="random", master_seed=seed)
            sys_, _ = _trial_system(cfg, T, 0)
            rng = generator(seed, "random", T, 0, "schedule")
            err_P, err_K = sweep_error(sys_, random_uniform_schedule(cfg.bounds, T, rng))
            assert err_P <= tol_P and err_K <= 1e-8


class TestScheduleCost:
    def test_zero_trajectory(self):
        sched = scalar_schedule(1.0, 1.0, 3)
        assert schedule_cost(np.zeros((3, 1)), np.zeros((2, 1)), sched) == 0.0

    def test_length_validation(self):
        sched = scalar_schedule(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            schedule_cost(np.zeros((2, 1)), np.zeros((2, 1)), sched)
