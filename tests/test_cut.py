"""The cut frozen sweep: its stacks against dense references, and its certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cut_reference import cut_reference, dense_sweep, stacks
from preview_lqr import riccati
from preview_lqr.costs import CostSchedule, random_uniform_schedule
from preview_lqr.experiments import ExperimentConfig, _trial_system, pendulum_cost_bounds
from preview_lqr.policies import FrozenPlanner
from preview_lqr.riccati import DareConvergenceError, riccati_step, solve_dare
from preview_lqr.seeding import generator
from preview_lqr.systems import LinearSystem, inverted_pendulum, random_controllable_system
from test_riccati import dare_cases, longdouble_sweep, random_pd


def instance(seed, n, m, T, scale):
    """A random controllable system with entries in (-scale, scale) and a
    random schedule; small entries make tails settle early, so cuts engage."""
    rng = np.random.default_rng(seed)
    sys_ = random_controllable_system(n, m, -scale, scale, rng, x0=rng.standard_normal(n))
    return sys_, CostSchedule(random_pd(rng, n, (T,)), random_pd(rng, m, (T - 1,))), rng


def assert_planner_reads(planner, ref):
    """Every stack a reader takes from the planner equals the reference's, bit for bit."""
    planner.prepare()
    X, U = ref["X_U"]
    pairs = [("K", planner.K, ref["K"]), ("apa_max", planner.apa_max, ref["apa_max"]),
             ("P_true", planner.P_true, ref["P_true"]), ("X", planner.X, X), ("U", planner.U, U)]
    pairs += [(f"k[{W}]", planner.k[W], k) for W, k in zip(planner.k, ref["k"])]
    for name, got, want in pairs:
        np.testing.assert_array_equal(got, want, err_msg=name)


def nonnormal_system():
    """A stable, strongly non-normal A = V S V' (S upper triangular, diagonal
    up to 0.99, off-diagonal entries up to 1e3), B = ones: with Q = I and
    R = 1 its DARE's Newton step overflows, so ``solve_dare`` raises."""
    rng = np.random.default_rng(0)
    S = np.triu(rng.uniform(-1.0, 1.0, (4, 4)), 1) * 1e3
    S[np.diag_indices(4)] = 0.99 * rng.uniform(-1.0, 1.0, 4)
    S[0, 0] = 0.99
    V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    return LinearSystem(V @ S @ V.T, np.ones((4, 1)), np.ones(4))


def constant_schedule(Q, R, T):
    return CostSchedule((Q,) * T, (R,) * (T - 1))


class TestCutReference:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 2),
        st.integers(3, 60),
        st.sampled_from([0.3, 1.2]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @example(1, 1, 60, 1.2, True, 0)
    @example(4, 2, 60, 0.3, False, 1)
    @example(3, 1, 40, 0.3, True, 2)
    @example(2, 2, 3, 1.2, True, 3)
    def test_planner_equals_cut_reference(self, n, m, T, scale, noisy, seed):
        # Holds, merges, the window and the banded rollout change no bit of
        # what the dense loop with the same overwrites gives.
        sys_, sched, rng = instance(seed, n, m, T, scale)
        w, Ws = (rng.standard_normal((2, T - 1, n)), [0, 3]) if noisy else (None, [])
        ref = stacks(sys_, sched, cut_reference(sys_, sched), w, Ws)
        assert_planner_reads(FrozenPlanner(sys_, sched, w, Ws), ref)

    @pytest.mark.parametrize("T", [24, 60])
    def test_cuts_engage(self, T):
        # A scalar system holds its tails and merges heads at T = 24 already;
        # the pendulum at T = 200 merges all but a few passes.
        for sys_, sched in [
            instance(4, 1, 1, T, 1.2)[:2],
            (inverted_pendulum(), random_uniform_schedule(pendulum_cost_bounds(), 200, np.random.default_rng(T))),
        ]:
            passes = cut_reference(sys_, sched)
            hold, tol, merged = passes[2]
            assert hold is not None and tol is not None and merged.any()
            assert_planner_reads(FrozenPlanner(sys_, sched), stacks(sys_, sched, passes))

    @pytest.mark.parametrize("scale", [1e-175, 1e150])
    def test_extreme_cost_scales(self, scale):
        # At 1e-175 the merge tolerance underflows to 0 and the carried
        # differences to exact zeros; at 1e150 it is near overflow.
        base = random_uniform_schedule(pendulum_cost_bounds(), 200, np.random.default_rng(1))
        sys_, sched = inverted_pendulum(), CostSchedule(scale * base.Q, scale * base.R, validate=False)
        with np.errstate(under="ignore"):
            passes = cut_reference(sys_, sched)
        assert passes[2][0] is not None and passes[2][2].any()
        assert_planner_reads(FrozenPlanner(sys_, sched), stacks(sys_, sched, passes))

    @pytest.mark.parametrize("case", ["short", "unstabilizable", "nonnormal"])
    def test_without_a_certificate_the_sweep_is_dense(self, case):
        # Below the first hold, or with a pair no doubling can settle, every
        # pass steps to the end as before the cut. Where Pbar's DARE raises,
        # the tails still hold but no head merges: every pass above the hold
        # is the dense sweep's.
        if case == "short":
            sys_, sched, _ = instance(5, 4, 1, 30, 1.2)
        elif case == "unstabilizable":
            sys_ = LinearSystem([[2.0, 0.0], [0.0, 0.5]], [[0.0], [1.0]], [1.0, 1.0], check_controllable=False)
            sched = constant_schedule(np.eye(2), np.eye(1), 60)
        else:
            sys_, sched = nonnormal_system(), constant_schedule(np.eye(4), np.eye(1), 60)
            with pytest.raises(DareConvergenceError):
                solve_dare(sys_.A, sys_.B, np.eye(4), np.eye(1))
        with np.errstate(over="ignore", invalid="ignore"):
            planner = FrozenPlanner(sys_, sched)
            planner.prepare()
            dense, cut = dense_sweep(sys_, sched), cut_reference(sys_, sched)
        hold, tol, merged = cut[2]
        if case == "nonnormal":
            assert hold is not None and tol is None and not merged.any()
            assert_planner_reads(planner, stacks(sys_, sched, cut))
            above = slice(hold + 1, None)
            np.testing.assert_array_equal(planner.K[above], dense[1][..., above].transpose(3, 0, 1, 2))
        else:
            assert hold is None
            assert_planner_reads(planner, stacks(sys_, sched, dense))

    @pytest.mark.parametrize(
        "label, T, tol",
        [("pendulum", 300, 1e-10)] + [(f"random-grid seed {seed}", 150, 1e-8) for seed in (1, 2, 3)],
    )
    def test_read_gains_keep_the_sweeps_accuracy(self, label, T, tol):
        # Every gain a reader takes, K_s[i] for i <= s, against the long-double
        # sweep, relative to the pass's largest entry: the thresholds of
        # test_riccati's TestSweepAccuracy for these systems.
        if label == "pendulum":
            sys_ = inverted_pendulum()
            sched = random_uniform_schedule(pendulum_cost_bounds(), T, np.random.default_rng(T))
        else:
            seed = int(label.split()[-1])
            cfg = ExperimentConfig(scenario="random", master_seed=seed)
            sys_, _ = _trial_system(cfg, T, 0)
            sched = random_uniform_schedule(cfg.bounds, T, generator(seed, "random", T, 0, "schedule"))
        planner = FrozenPlanner(sys_, sched)
        planner.prepare()
        _, K_ld = longdouble_sweep(sys_, sched)
        read = np.arange(T - 1)[None, :] <= np.arange(T)[:, None]
        err = np.where(read[..., None, None], np.abs(planner.K - K_ld), 0.0).max(axis=(1, 2, 3))
        assert (err / np.abs(K_ld).max(axis=(1, 2, 3))).max() <= tol


class TestCertificates:
    def test_doubling_levels_are_iterates_and_bound_the_tail(self):
        # On 30 random stabilizable instances, stacked per n: level j's H is
        # the Riccati iterate after 2^j - 1 steps from Q, and every iterate
        # from 2^j to 2^j + 200 is within ||A_j||^2 ||X|| of the DARE's X.
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 4):
            problems = []
            for _ in range(30 // 4 + (n <= 30 % 4)):
                m = int(rng.integers(1, 3))
                sys_ = random_controllable_system(n, m, -1.2, 1.2, rng)
                problems.append((sys_.A, sys_.B, random_pd(rng, n), random_pd(rng, m)))
            A = np.stack([p[0] for p in problems])
            G = np.stack([B @ np.linalg.solve(R, B.T) for _, B, _, R in problems])
            H = np.stack([p[2] for p in problems])
            G = 0.5 * (G + np.swapaxes(G, 1, 2))
            levels = [(A, H)]
            for _ in range(6):
                A, G, H = riccati._doubling_step(A, G, H)
                levels.append((A, H))
            for p, (A_p, B_p, Q_p, R_p) in enumerate(problems):
                iterate = [None, Q_p]
                for _ in range(2**6 + 200):
                    iterate.append(riccati_step(iterate[-1], A_p, B_p, Q_p, R_p)[0])
                X = solve_dare(A_p, B_p, Q_p, R_p)
                scale = np.linalg.norm(X, 2)
                for j, (A_j, H_j) in enumerate(levels):
                    X_m = iterate[2**j]
                    assert np.abs(H_j[p] - X_m).max() <= 1e-10 * np.abs(X_m).max(), (n, p, j)
                    gap = np.linalg.norm(np.stack(iterate[2**j : 2**j + 201]) - X, 2, axis=(1, 2))
                    assert gap.max() <= np.linalg.norm(A_j[p], 2) ** 2 * scale + 1e-12 * scale, (n, p, j)

    @pytest.mark.parametrize("seed, n", [(0, 3), (1, 4), (2, 2)])
    def test_carried_difference_matches_long_double(self, seed, n):
        # Pass s and the true pass from their float values at s, stepped on
        # in long double: the identity carries their difference, in float
        # and with the float sweep's gains, to the same matrices at depths
        # 1..15, within 1e-5 where the float difference is off by up to 3e-2.
        T, s = 60, 50
        sys_, sched, _ = instance(seed, n, 1, T, 1.2)
        P, K = dense_sweep(sys_, sched)
        ld = np.longdouble
        A, B = sys_.A.astype(ld), sys_.B.astype(ld)
        pair = [P[s][..., s].astype(ld), P[s][..., T - 1].astype(ld)]
        D = (P[s][..., s] - P[s][..., T - 1])[..., None]
        for i in range(s - 1, s - 16, -1):
            Q, R = sched.Q[i].astype(ld), sched.R[i].astype(ld)
            for c, X in enumerate(pair):
                X = A.T @ X @ A + Q - A.T @ X @ B @ (B.T @ X @ A) / (R + B.T @ X @ B)
                pair[c] = 0.5 * (X + X.T)
            D, _ = riccati._carry_difference(sys_, D, K[i][..., [s, T - 1]])
            exact = (pair[0] - pair[1]).astype(float)
            assert np.abs(D[..., 0].T - exact).max() <= 1e-5 * np.abs(exact).max(), s - i

    def test_solve_dare_keeps_its_bits(self):
        # The doubling as one (A, G, H) loop, before it took stacks: the
        # library's solve_dare gives the same bits on the DARE tests' inputs.
        def previous_doubling(A, G, H, tol):
            n = len(A)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for _ in range(riccati.DARE_MAX_DOUBLINGS):
                    X = np.linalg.solve(np.eye(n) + G @ H, np.concatenate([A, G], axis=1))
                    H_next, G = H + A.T @ H @ X[:, :n], G + A @ X[:, n:] @ A.T
                    A, H_next, G = A @ X[:, :n], 0.5 * (H_next + H_next.T), 0.5 * (G + G.T)
                    if np.abs(H_next - H).max() <= tol * np.abs(H_next).max() and np.abs(A).max() < 1.0:
                        return H_next
                    H = H_next

        def previous_solve_dare(A, B, Q, R, tol=1e-10):
            A, Q, R = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, Q, R))
            B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
            G = B @ np.linalg.solve(R, B.T)
            P = previous_doubling(A, 0.5 * (G + G.T), Q, tol)
            K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
            Al, Bl, Ql, Rl, Pl, Kl = (np.asarray(M, dtype=np.longdouble) for M in (A, B, Q, R, P, K))
            C = Al + Bl @ Kl
            residual = Ql + Kl.T @ Rl @ Kl + C.T @ Pl @ C - Pl
            return P + previous_doubling(
                C.astype(float), np.zeros_like(G), (0.5 * (residual + residual.T)).astype(float), tol
            )

        cases = [case for kind in ("pendulum", "verify", "random-grid") for case in dare_cases(kind)]
        cases += [(0.0, 1.0, 3.0, 1.0), (1.0, 1.0, 1.0, 1.0)]
        for A, B, Q, R in cases:
            assert solve_dare(A, B, Q, R).tobytes() == previous_solve_dare(A, B, Q, R).tobytes()


def test_constant_schedule_screens_few_matrices(monkeypatch):
    # A constant schedule's tails settle to round-off and tie with their
    # suffix maxima, so before the cut eigvalsh saw 156,800 of the 159,200
    # interior matrices at T = 400. Held tails are screened once, and merged
    # heads repeat the true pass.
    T = 400
    bounds = pendulum_cost_bounds()
    sys_, sched = inverted_pendulum(), constant_schedule(bounds.Q_max, bounds.R_min, T)
    eigvalsh, seen = np.linalg.eigvalsh, []

    def counting(a, *args, **kwargs):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    top = riccati.frozen_backward_sweep(sys_, sched)[1]
    monkeypatch.undo()
    assert sum(seen) <= 40_000
    np.testing.assert_array_equal(top, stacks(sys_, sched, cut_reference(sys_, sched))["apa_max"])
