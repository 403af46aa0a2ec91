import dataclasses
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preview_lqr import riccati as riccati_module
from preview_lqr.bounds import (
    BoundConstants,
    DegenerateConstantsError,
    _sufficient_condition_rhs,
    compute_bound_constants,
    geometric_sum,
    make_bound_report,
    regret_upper_bound,
    scaling_certificate,
    sufficient_condition_check,
)
from preview_lqr.costs import (
    CostBounds,
    CostSchedule,
    IncomparableScheduleError,
    frozen_schedule,
    max_eigenvalue,
    min_eigenvalue,
    random_uniform_schedule,
    sequence_extrema,
)
from preview_lqr.experiments import pendulum_cost_bounds
from preview_lqr.policies import (
    FrozenPlanner,
    PolicyConfig,
    UnstableTrackingError,
    prediction_tracking_policy,
)
from preview_lqr.regret import regret_via_control_deviation
from preview_lqr.riccati import (
    ALPHA_BLOCK,
    _AlphaScreen,
    _only,
    backward_riccati,
    frozen_backward_sweep,
    solve_dare,
)
from preview_lqr.systems import (
    DisturbanceModel,
    LinearSystem,
    inverted_pendulum,
    place_poles_single_input,
    random_controllable_system,
    spectral_radius,
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


def constants_at(sys_, sched, K, W, cost_bounds=None):
    """The bound constants of one instance at one preview length."""
    return _only(compute_bound_constants(FrozenPlanner(sys_, sched), K, [W], cost_bounds))


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
        c = constants_at(sys_, sched, [[0.0]], 0)
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
            constants_at(sys_, sched, [[0.1]], W).alpha1
            for W in (0, 2, 5)
        ]
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(values[2], rel=1e-12)

    def test_pendulum_constant_ranges(self):
        sys_, bounds, sched, K = pendulum_setup(40)
        c = constants_at(sys_, sched, K, 5)
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
            constants_at(sys_, sched, [[0.0, 0.0]], 0)
        bounds = CostBounds(0.5 * np.eye(2), 3.0 * np.eye(2), [[0.5]], [[2.0]])
        c = constants_at(sys_, sched, [[0.0, 0.0]], 0, cost_bounds=bounds)
        np.testing.assert_array_equal(c.Qbar_max, bounds.Q_max)
        assert not c.Pbar_max.flags.writeable

    def test_rejects_unstable_tracking_gain(self):
        sys_ = scalar_system(1.5, 1.0)
        sched = scalar_schedule(1.0, 1.0, 10)
        with pytest.raises(ValueError, match="stabilize"):
            constants_at(sys_, sched, [[0.0]], 0)


def reference_bound_constants(sys, schedule, K_track, W=0, cost_bounds=None):
    """The uncached evaluation: every constant recomputed for this one W."""
    A, B = sys.A, sys.B
    K_track = np.atleast_2d(np.asarray(K_track, dtype=float))
    T = schedule.horizon
    try:
        ext = sequence_extrema(schedule)
        Qb_min, Qb_max = ext.Qbar_min, ext.Qbar_max
        Rb_min, Rb_max = ext.Rbar_min, ext.Rbar_max
    except IncomparableScheduleError:
        if cost_bounds is None:
            raise
        Qb_min, Qb_max = cost_bounds.Q_min, cost_bounds.Q_max
        Rb_min, Rb_max = cost_bounds.R_min, cost_bounds.R_max

    def norm(M):
        return float(np.linalg.norm(np.atleast_2d(M), 2))

    Pbar = solve_dare(A, B, Qb_max, Rb_max)
    lam_P = max_eigenvalue(Pbar)
    lam_Qmin = min_eigenvalue(Qb_min)
    D = norm(Rb_max + B.T @ Pbar @ B)
    C_K = (
        norm(np.linalg.inv(Rb_min + B.T @ Qb_min @ B)) ** 2
        * norm(Rb_max @ B.T)
        * lam_P**2
        / lam_Qmin
    )
    C = lam_P / lam_Qmin
    eta = float(np.sqrt(max(0.0, 1.0 - lam_Qmin / lam_P)))

    planner = FrozenPlanner(sys, schedule, keep_P=True)
    planner.prepare()
    hi = T - 1 if T <= 2 else T - 2
    stacked = planner.P[min(W, T - 1) :, 1 : hi + 1]
    APA = A.T @ stacked @ A
    APA = 0.5 * (APA + np.swapaxes(APA, -1, -2))
    alpha = float(np.linalg.eigvalsh(APA)[..., -1].max())
    beta = float(np.linalg.eigvalsh(schedule.Q[: T - 1])[:, 0].min())
    gamma = alpha / (alpha + beta)

    def batch_norm(stack):
        return np.linalg.svd(stack, compute_uv=False)[:, 0]

    t_all = np.arange(T - 1)
    realized = planner.K[np.minimum(t_all + W, T - 1), t_all]
    alpha1 = float(batch_norm(realized - K_track).max() ** 2)
    alpha2 = float(2.0 * (batch_norm(planner.K[T - 1] - K_track).max() ** 2))

    rho = spectral_radius(A + B @ K_track)
    if not rho < 1.0:
        raise UnstableTrackingError(f"tracking gain must stabilize the loop, rho = {rho}")
    epsilon = 0.5 * (1.0 - rho)
    q = rho + epsilon
    closed = A + B @ K_track
    denom = q + epsilon
    C_f = 1.0
    M = np.eye(sys.n)
    for power in range(1, 200000):
        M = closed @ M
        n_M = norm(M)
        C_f = max(C_f, n_M / denom**power)
        if n_M < 1e-30:
            break

    if not (0.0 < eta < 1.0 and 0.0 < gamma < 1.0 and 0.0 < q < 1.0):
        raise DegenerateConstantsError("constants out of range")
    return BoundConstants(
        Pbar_max=Pbar, D=D, C_K=C_K, C=C, eta=eta, alpha=alpha, beta=beta,
        gamma=gamma, alpha1=alpha1, alpha2=alpha2, C_f=C_f, q=q, epsilon=epsilon,
        Qbar_min=np.asarray(Qb_min, dtype=float), Qbar_max=np.asarray(Qb_max, dtype=float),
        Rbar_min=np.asarray(Rb_min, dtype=float), Rbar_max=np.asarray(Rb_max, dtype=float),
    )


def assert_constants_equal(actual, expected):
    for field in dataclasses.fields(BoundConstants):
        np.testing.assert_array_equal(
            getattr(actual, field.name), getattr(expected, field.name), err_msg=field.name
        )


def outcome(fn, *args, **kwargs):
    """The result of fn, or the type of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # the reference and the cached path must agree on it
        return type(err)


def random_pd(rng, k):
    M = rng.standard_normal((k, k))
    return M @ M.T + 0.5 * np.eye(k)


def constants_instance(seed, n, m, T, kind):
    """A random controllable system, a stabilizing gain and a schedule.

    ``kind`` "chain" draws the schedule on one Loewner chain (its extrema
    exist); "free" draws independent matrices, which for n > 1 usually have
    none, with a priori bounds ("free+bounds") or without.
    """
    rng = np.random.default_rng(seed)
    sys_ = random_controllable_system(n, m, -1.2, 1.2, rng)
    if m == 1:
        K = place_poles_single_input(sys_, np.linspace(0.05, 0.3, n))
    else:
        P = solve_dare(sys_.A, sys_.B, np.eye(n), np.eye(m))
        G = np.eye(m) + sys_.B.T @ P @ sys_.B
        K = -np.linalg.solve(G, sys_.B.T @ P @ sys_.A)
    Q_lo, R_lo = random_pd(rng, n), random_pd(rng, m)
    bounds = CostBounds(Q_lo, Q_lo + random_pd(rng, n), R_lo, R_lo + random_pd(rng, m))
    if kind == "chain":
        sched = random_uniform_schedule(bounds, T, rng)
    else:
        sched = CostSchedule(
            tuple(random_pd(rng, n) for _ in range(T)),
            tuple(random_pd(rng, m) for _ in range(T - 1)),
        )
    return sys_, sched, K, (bounds if kind == "free+bounds" else None)


class TestBoundConstantsCache:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 2),
        st.integers(2, 60),
        st.sampled_from(["chain", "free", "free+bounds"]),
        st.integers(0, 2**32 - 1),
    )
    @example(4, 1, 60, "chain", 0)
    @example(4, 2, 2, "free+bounds", 1)
    @example(1, 1, 2, "free", 2)
    def test_every_field_matches_uncached_evaluation(self, n, m, T, kind, seed):
        # One call over every preview length, with the W-independent
        # failures raised and the per-W ones returned, against the reference
        # evaluated per W.
        sys_, sched, K, bounds = constants_instance(seed, n, m, T, kind)
        Ws = range(T + 3)
        batch = outcome(compute_bound_constants, FrozenPlanner(sys_, sched), K, Ws, bounds)
        if not isinstance(batch, type):
            assert len(batch) == len(Ws)
        for W in Ws:
            got = batch if isinstance(batch, type) else batch[W]
            got = type(got) if isinstance(got, Exception) else got
            expected = outcome(reference_bound_constants, sys_, sched, K, W, cost_bounds=bounds)
            if isinstance(expected, type):
                assert got is expected, f"W={W}"
            else:
                assert_constants_equal(got, expected)

    def test_preview_order_and_planner_reuse_do_not_matter(self):
        sys_, bounds, sched, K = pendulum_setup(60, seed=4)
        Ws = range(10, 2, -1)
        batch = compute_bound_constants(FrozenPlanner(sys_, sched), K, Ws)
        for W, c in zip(Ws, batch):
            assert_constants_equal(c, constants_at(sys_, sched, K, W))

    def test_shared_pbar_max_is_read_only(self):
        sys_, bounds, sched, K = pendulum_setup(20)
        first, second = compute_bound_constants(FrozenPlanner(sys_, sched), K, [2, 3])
        assert first.Pbar_max is second.Pbar_max
        with pytest.raises(ValueError):
            first.Pbar_max[0, 0] = 0.0

    def test_memory_stays_bounded_at_long_horizon(self):
        # One (T, T, n, n) stack of value matrices is 20.5 MB at T = 400; a
        # noise-free planner keeps none, only the sweep's ring of steps.
        sys_, bounds, sched, K = pendulum_setup(400, seed=2)
        planner = FrozenPlanner(sys_, sched)
        tracemalloc.start()
        try:
            planner.prepare()
            compute_bound_constants(planner, K, [3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # A planner built to keep them gets every pass bit for bit, and the
        # same gains, true pass and per-pass maxima.
        kept = FrozenPlanner(sys_, sched, keep_P=True)
        kept.prepare()
        for name in ("K", "P_true", "apa_max"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(planner, name))
        np.testing.assert_array_equal(kept.P[399], planner.P_true)
        for s in (0, 1, 2, 57, 200, 331, 397, 398, 399):
            ref = backward_riccati(sys_, frozen_schedule(sched, s, 0))
            np.testing.assert_array_equal(kept.P[s], ref.P)
            np.testing.assert_array_equal(kept.K[s], ref.K)


def unscreened_alpha_top(A, P):
    """The per-pass top eigenvalues with eigvalsh on every interior A'PA."""
    T = P.shape[0]
    hi = T - 1 if T <= 2 else T - 2
    top = np.empty(T)
    for s in range(0, T, ALPHA_BLOCK):
        APA = A.T @ P[s : s + ALPHA_BLOCK, 1 : hi + 1] @ A
        APA = 0.5 * (APA + np.swapaxes(APA, -1, -2))
        top[s : s + ALPHA_BLOCK] = np.linalg.eigvalsh(APA)[..., -1].max(axis=-1)
    return top


def streamed_alpha_top(A, P):
    """The sweep's screen fed the interior steps of the stack P, in the sweep's blocks."""
    T = P.shape[0]
    hi = T - 1 if T <= 2 else T - 2
    screen = _AlphaScreen(A, T)
    for i in range(hi, 0, -ALPHA_BLOCK):
        screen.screen(P[:, max(i - ALPHA_BLOCK + 1, 1) : i + 1])
    return screen.top


def assert_screen_exact(A, P):
    np.testing.assert_array_equal(streamed_alpha_top(A, P), unscreened_alpha_top(A, P))


def frozen_passes(sys_, sched):
    """The system matrix and the planner's stack of frozen passes.

    The per-pass maxima that the planner's own sweep screened are checked
    against the unscreened loop on the way.
    """
    planner = FrozenPlanner(sys_, sched, keep_P=True)
    planner.prepare()
    np.testing.assert_array_equal(planner.apa_max, unscreened_alpha_top(sys_.A, planner.P))
    return sys_.A, planner.P


def cancelling_passes(seed, n, T):
    """A system matrix and passes whose A'PA sums cancel: |A|'|P||A| is far above |A'PA|.

    Every P[s, i] has a large mixed-sign direction v, and the columns of
    the mixed-sign A are all but orthogonal to v, so (A'P)A is small
    against the rounding of its formation (for n = 1 nothing cancels).
    """
    rng = np.random.default_rng(seed)
    v = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.5, n)
    A = rng.uniform(-1.2, 1.2, (n, n))
    A -= np.outer(v, v @ A) / (v @ v)
    A += 1e-7 * rng.uniform(-1.0, 1.0, (n, n))
    M = rng.uniform(-1.0, 1.0, (T, T, n, n))
    big = 10.0 ** rng.uniform(6.0, 14.0, (T, T, 1, 1))
    return A, big * np.outer(v, v) + M @ np.swapaxes(M, -1, -2)


class TestAlphaScreen:
    """The alpha screen that ``frozen_backward_sweep`` streams changes no bit."""

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 2),
        st.integers(2, 80),
        st.sampled_from(["chain", "free", "cancelling"]),
        st.integers(0, 2**32 - 1),
    )
    @example(4, 1, 80, "chain", 0)
    @example(4, 2, 80, "free", 1)
    @example(1, 1, 2, "chain", 2)
    @example(4, 1, 80, "cancelling", 3)
    @example(2, 1, 40, "cancelling", 4)
    def test_matches_unscreened_loop(self, n, m, T, kind, seed):
        if kind == "cancelling":
            assert_screen_exact(*cancelling_passes(seed, n, T))
        else:
            sys_, sched, _, _ = constants_instance(seed, n, m, T, kind)
            assert_screen_exact(*frozen_passes(sys_, sched))

    def test_constant_schedule_ties(self):
        # Every pass is the same, so every pass's screen values tie.
        sys_, bounds, _, _ = pendulum_setup(50)
        sched = CostSchedule((bounds.Q_max,) * 50, (bounds.R_min,) * 49)
        A, P = frozen_passes(sys_, sched)
        assert_screen_exact(A, P)
        top = streamed_alpha_top(A, P)
        assert np.all(top == top[0])

    def test_singular_products(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(-1.2, 1.2, (3, 3))
        A[:, 1] = 0.0
        sys_ = LinearSystem(A, rng.uniform(-1, 1, (3, 1)), np.ones(3))
        sched = random_uniform_schedule(
            CostBounds(np.eye(3), 4 * np.eye(3), [[1.0]], [[3.0]]), 60, rng
        )
        assert_screen_exact(*frozen_passes(sys_, sched))

    @pytest.mark.parametrize("scale", [1e-175, 1e150])
    def test_extreme_cost_scales(self, scale):
        # At 1e-175 the squares in ||M||_F underflow; at 1e150 they overflow.
        sys_, _, sched, _ = pendulum_setup(60, seed=1)
        scaled = CostSchedule(scale * sched.Q, scale * sched.R, validate=False)
        A, P = frozen_passes(sys_, scaled)
        assert_screen_exact(A, P)
        assert np.all(np.isfinite(streamed_alpha_top(A, P)))

    def test_non_finite_passes_are_kept(self):
        # A NaN matrix must reach eigvalsh even beside a larger finite one.
        T = 40
        rng = np.random.default_rng(4)
        P = rng.uniform(1.0, 2.0, (T, T, 1, 1))
        P[3, 5] = np.nan
        P[3, 6] = 1e6
        P[7, 9] = np.inf
        P[11, 2], P[11, 4] = np.inf, np.nan
        A = np.array([[0.9]])
        top = streamed_alpha_top(A, P)
        np.testing.assert_array_equal(top, unscreened_alpha_top(A, P))
        assert np.isnan(top[3]) and top[7] == np.inf and np.isnan(top[11])

        M = rng.standard_normal((T, T, 2, 2))
        P = M @ np.swapaxes(M, -1, -2)
        P[5, 8, 0, 1] = np.nan
        P[5, 9] *= 1e6
        A = rng.standard_normal((2, 2))
        top = streamed_alpha_top(A, P)
        np.testing.assert_array_equal(top, unscreened_alpha_top(A, P))
        assert np.isnan(top[5])

    def test_eigvalsh_sees_few_matrices(self, monkeypatch):
        # The sweep streams the same screen whether or not it keeps P.
        T = 400
        sys_, _, sched, _ = pendulum_setup(T, seed=2)
        eigvalsh = np.linalg.eigvalsh
        for keep_P in (False, True):
            seen = []

            def counting(a, *args, **kwargs):
                seen.append(int(np.prod(np.shape(a)[:-2])))
                return eigvalsh(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, "eigvalsh", counting)
            frozen_backward_sweep(sys_, sched, keep_P)
            monkeypatch.undo()
            assert sum(seen) <= 0.10 * T * (T - 2)

    def test_few_products_are_formed(self, monkeypatch):
        T = 400
        sys_, _, sched, _ = pendulum_setup(T, seed=2)
        symmetrized_apa = riccati_module._symmetrized_apa
        P = frozen_backward_sweep(sys_, sched, keep_P=True)[3]
        for keep_P in (False, True):
            formed = []

            def counting(A, P):
                formed.append(int(np.prod(np.shape(P)[:-2])))
                return symmetrized_apa(A, P)

            monkeypatch.setattr(riccati_module, "_symmetrized_apa", counting)
            top = frozen_backward_sweep(sys_, sched, keep_P)[1]
            monkeypatch.undo()
            np.testing.assert_array_equal(top, unscreened_alpha_top(sys_.A, P))
            assert sum(formed) <= 0.10 * T * (T - 2)


def high_precision_bound(c, T, W, x0):
    """The bound's defining series, summed term by term in 60 digits.

    The float constants are taken as exact, except gamma, which is
    alpha / (alpha + beta) carried at full precision.
    """
    mpf = mpmath.mpf
    with mpmath.workdps(60):
        g = mpf(c.alpha) / (mpf(c.alpha) + mpf(c.beta))
        e, q = mpf(c.eta), mpf(c.q)

        def S(z):
            return mpmath.fsum(z**t for t in range(T))

        main = mpmath.fsum(e ** (2 * t) * (1 - g ** (t + 1)) ** 2 for t in range(T))
        transient = (
            (e * g / (q * (q - e * g)) - e / (q * (q - e))) ** 2 * S(q**2)
            + (e * g) ** 2 * S(e**2 * g**2) / (q**2 * (q - e * g) ** 2)
            + e**2 * S(e**2) / (q**2 * (q - e) ** 2)
        )
        C, C_K, C_f = mpf(c.C), mpf(c.C_K), mpf(c.C_f)
        prefactor = (C**2 * C_K * g / (g - 1)) ** 2
        inner = (mpf(c.alpha1) + mpf(c.alpha2)) * prefactor * (
            main + mpf(10) / 3 * C_f**2 * transient
        ) + (C_K * C**2) ** 2 * S(e**2)
        x0_sq = mpmath.fsum(mpf(float(v)) ** 2 for v in x0)
        return 10 * mpf(c.D) * g ** (2 * W) * x0_sq / 3 * inner


class TestRegretUpperBound:
    @pytest.mark.parametrize("T, W, seed", [(4, 2, 1), (20, 8, 1), (200, 3, 5), (200, 10, 5)])
    def test_matches_high_precision_series(self, T, W, seed):
        # On the pendulum gamma is within 1e-6 of 1, where forming 1 - gamma
        # from the rounded gamma alone loses about ten digits.
        sys_, bounds, sched, K = pendulum_setup(T, seed=seed)
        c = constants_at(sys_, sched, K, W)
        assert 1.0 - c.gamma < 1e-4
        exact = high_precision_bound(c, T, W, sys_.x0)
        got = regret_upper_bound(c, T, W, sys_.x0)
        assert abs(mpmath.mpf(got) - exact) <= 1e-12 * exact

    def test_zero_initial_state(self):
        sys_, bounds, sched, K = pendulum_setup(20)
        c = constants_at(sys_, sched, K, 2)
        assert regret_upper_bound(c, 20, 2, np.zeros(4)) == 0.0

    def test_preview_ratio_is_exact(self):
        sys_, bounds, sched, K = pendulum_setup(30)
        c = constants_at(sys_, sched, K, 3)
        b0 = regret_upper_bound(c, 30, 3, sys_.x0)
        b1 = regret_upper_bound(c, 30, 4, sys_.x0)
        assert b1 / b0 == pytest.approx(c.gamma**2, rel=1e-12)

    def test_growth_in_horizon_saturates(self):
        sys_ = scalar_system(0.5, 1.0)
        sched = scalar_schedule(1.0, 1.0, 50)
        c = constants_at(sys_, sched, [[0.0]], 0)
        values = [regret_upper_bound(c, T, 0, sys_.x0) for T in (100, 1000, 10000)]
        assert values[0] <= values[1] <= values[2]
        assert values[1] / 100 > values[2] / 10000 * 99  # strictly sublinear growth
        assert abs(values[2] - values[1]) <= 1e-6 * values[1]

    def test_pole_detection(self):
        sys_, bounds, sched, K = pendulum_setup(20)
        c = constants_at(sys_, sched, K, 2)
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
        c = _only(compute_bound_constants(planner, K, [5]))
        bound = regret_upper_bound(c, 50, 5, sys_.x0)
        assert realized <= bound


def high_precision_condition_rhs(c, sys_):
    """The sufficient condition's right-hand side in 60 digits.

    Float inputs are taken as exact, gamma is alpha / (alpha + beta) at full
    precision, and the matrix norms and eigenvalues are the float ones.
    """
    mpf = mpmath.mpf
    with mpmath.workdps(60):
        g = mpf(c.alpha) / (mpf(c.alpha) + mpf(c.beta))
        e, q = mpf(c.eta), mpf(c.q)
        bracket = (1 + (mpf(c.alpha1) + mpf(c.alpha2)) / (1 - g) ** 2) / (1 - e**2)
        bracket += 10 * mpf(c.C_f) ** 2 / (
            q**2 * (q - e * g) ** 2 * (q - e) ** 2
            * (1 - e**2) * (1 - e**2 * g**2) * (1 - q**2)
        )

        def norm(M):
            return mpf(float(np.linalg.norm(np.atleast_2d(M), 2)))

        B_Rinv_B = sys_.B @ np.linalg.inv(c.Rbar_min) @ sys_.B.T
        denom = (
            6 * norm(sys_.A) ** 2 * norm(sys_.B) ** 2 * norm(B_Rinv_B) ** 2
            / (
                mpf(c.C_K) ** 2
                * mpf(min_eigenvalue(c.Rbar_min)) ** 2
                * mpf(min_eigenvalue(c.Qbar_min)) ** 4
            )
        )
        return 5 * bracket / denom


class TestSufficientCondition:
    # gamma is within about 1e-6 of 1 on these instances; forming 1 - gamma
    # from the rounded gamma costs about 1e-10 relative.
    @pytest.mark.parametrize("T, W, seed", [(20, 8, 1), (200, 3, 5), (60, 0, 2)])
    def test_rhs_matches_high_precision(self, T, W, seed):
        sys_, bounds, sched, K = pendulum_setup(T, seed=seed)
        c = constants_at(sys_, sched, K, W)
        assert 1.0 - c.gamma < 1e-5
        got = _sufficient_condition_rhs(c, sys_)
        exact = high_precision_condition_rhs(c, sys_)
        assert abs(mpmath.mpf(got) - exact) <= 1e-12 * exact

    def test_monotone_in_upper_state_cost(self):
        sys_, bounds, sched, K = pendulum_setup(20)
        c = constants_at(sys_, sched, K, 2)
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
        c = constants_at(sys_, sched, [[0.0]], 0)
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

    # ScalingReport fields of the pendulum at Ts = (50, 100), W = 8, 4 trials
    # and w ~ N(0, 25 I), per master seed, as float.hex() strings. A change
    # that moves them regenerates them only after the round-off contract
    # (tests/roundoff.py, ``certificate_floors`` and ``compare_grids``)
    # accepts the new report against the old one.
    GOLDEN = {
        0: {
            "expected_regrets": ("0x1.21744306e381fp+34", "0x1.1f1aea7c8b93cp+35"),
            "stderrs": ("0x1.bfa29661b349ep+31", "0x1.4e1f6434a7286p+31"),
            "gammas": ("0x1.ffffe39ff2cddp-1", "0x1.ffffe4f249d86p-1"),
            "rates": ("0x1.72819e5460466p+28", "0x1.6f7fd37937e77p+28"),
            "ratio": "0x1.02183cc1f38eap+0",
        },
        5: {
            "expected_regrets": ("0x1.0372bb8dc2570p+34", "0x1.588cff8bbbffap+35"),
            "stderrs": ("0x1.e16d16546e9cbp+30", "0x1.d5794db5bdafcp+31"),
            "gammas": ("0x1.ffffe30763cb2p-1", "0x1.ffffe4e52c51bp-1"),
            "rates": ("0x1.4c1926f8a7ca9p+28", "0x1.b907db615d130p+28"),
            "ratio": "0x1.53f8a3bc561d2p+0",
        },
    }

    @pytest.mark.parametrize("master_seed", sorted(GOLDEN))
    def test_pendulum_report_is_golden(self, master_seed):
        report = scaling_certificate(
            inverted_pendulum(), pendulum_cost_bounds(), DisturbanceModel(25.0 * np.eye(4)),
            Ts=(50, 100), W=8, trials=4, master_seed=master_seed,
        )
        golden = self.GOLDEN[master_seed]
        assert report.Ts == (50, 100)
        assert (report.certified, report.excluded, report.trials) == (True, (0, 0), 4)
        assert report.ratio.hex() == golden["ratio"]
        for field in ("expected_regrets", "stderrs", "gammas", "rates"):
            assert tuple(v.hex() for v in getattr(report, field)) == golden[field], field

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
        report = make_bound_report(planner, K, 4, realized, bounds)
        assert report.margin == pytest.approx(
            report.bound_value - report.realized_regret
        )
        assert report.bound_value >= 0.0
