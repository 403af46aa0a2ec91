import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import preview_lqr

from preview_lqr.costs import (
    CostBounds,
    CostSchedule,
    random_uniform_schedule,
    sequence_extrema,
)
from preview_lqr.experiments import pendulum_cost_bounds
from preview_lqr.policies import (
    FrozenPlanner,
    PolicyConfig,
    clairvoyant_policy,
    default_tracking_poles,
    mpc_baseline_policy,
    prediction_tracking_policy,
)
from preview_lqr.regret import (
    AllTrialsFailedError,
    RegretReport,
    expected_regret_mc,
    paired_regrets,
    phi_metric,
    regret,
    regret_via_control_deviation,
)
from preview_lqr.riccati import (
    Trajectory,
    TrajectoryOverflowError,
    backward_riccati,
    schedule_cost,
    solve_dare,
)
from preview_lqr.seeding import generator
from preview_lqr.systems import (
    DisturbanceModel,
    LinearSystem,
    inverted_pendulum,
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

    def test_matches_longdouble_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n, T = int(rng.integers(1, 5)), int(rng.integers(2, 40))
            sched = varying_schedule(rng, n, T)
            x = rng.standard_normal((T, n))
            u = rng.standard_normal((T - 1, 1))
            ld = np.longdouble
            ref = sum(x[t].astype(ld) @ sched.Q[t].astype(ld) @ x[t].astype(ld) for t in range(T))
            ref += sum(u[t].astype(ld) @ sched.R[t].astype(ld) @ u[t].astype(ld) for t in range(T - 1))
            assert abs(schedule_cost(x, u, sched) - ref) <= 1e-14 * ref


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

    def test_matches_longdouble_loop(self):
        rng = np.random.default_rng(7)
        ld = np.longdouble
        for _ in range(10):
            n, T = int(rng.integers(1, 5)), int(rng.integers(3, 40))
            sys_ = random_controllable_system(n, 1, -1.2, 1.2, rng, x0=rng.standard_normal(n))
            sched = varying_schedule(rng, n, T)
            sol = backward_riccati(sys_, sched)
            x = rng.standard_normal((T, n))
            u = rng.standard_normal((T - 1, 1))
            traj = Trajectory(x, u, schedule_cost(x, u, sched))
            B = sys_.B.astype(ld)
            ref = ld(0.0)
            for t in range(T - 1):
                d = u[t].astype(ld) - sol.K[t].astype(ld) @ x[t].astype(ld)
                ref += d @ (sched.R[t].astype(ld) + B.T @ sol.P[t + 1].astype(ld) @ B) @ d
            ident = regret_via_control_deviation(traj, sys_, sched)
            assert abs(ident - ref) <= 1e-13 * ref

    def test_planner_true_pass_is_the_default_pass(self):
        # The sweep's pass T-1 is backward_riccati's pass bit for bit, so
        # both give the same float.
        rng = np.random.default_rng(8)
        for n, T, W in ((4, 60, 3), (3, 25, 0), (2, 12, 10)):
            sys_ = random_controllable_system(n, 1, -1.2, 1.2, rng, x0=rng.standard_normal(n))
            sched = varying_schedule(rng, n, T)
            K = place_poles_single_input(sys_, np.linspace(0.05, 0.3, n))
            planner = FrozenPlanner(sys_, sched)
            traj = prediction_tracking_policy(sys_, sched, PolicyConfig(W, K), planner=planner)
            default = regret_via_control_deviation(traj, sys_, sched)
            via_planner = regret_via_control_deviation(
                traj, sys_, sched, solution=planner.solution(T - 1)
            )
            assert via_planner == default


def looped_expected_regret(planner, cfg, dist, trials, master_seed, drop=()):
    """The Monte-Carlo estimate as one tracker and one comparator per trial.

    The loop the batched estimate replaced, with the comparator's pass
    solved again, except that a trial whose comparator overflows is
    excluded, as one whose tracker overflows is, where the loop raised.
    Trials in ``drop`` count as overflowed.
    """
    sys_, sched, T = planner.sys, planner.schedule, planner.T
    true_sol = backward_riccati(sys_, sched)
    regrets, costs_policy, costs_opt = [], [], []
    excluded = 0
    for trial in range(trials):
        w = dist.sample(generator(master_seed, "mc", "disturbance", trial), T - 1)
        try:
            traj = prediction_tracking_policy(sys_, sched, cfg, w, planner=planner)
            opt = clairvoyant_policy(sys_, sched, w, solution=true_sol)
        except TrajectoryOverflowError:
            excluded += 1
            continue
        if trial in drop:
            excluded += 1
            continue
        regrets.append(traj.cost - opt.cost)
        costs_policy.append(traj.cost)
        costs_opt.append(opt.cost)
    if not regrets:
        raise AllTrialsFailedError(f"all {trials} trials overflowed")
    arr = np.asarray(regrets)
    stderr = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return RegretReport(
        regret=float(arr.mean()),
        cost_policy=float(np.mean(costs_policy)),
        cost_optimal=float(np.mean(costs_opt)),
        trials=arr.size,
        stderr=stderr,
        excluded_trials=excluded,
    )


class EditedDisturbance:
    """A disturbance model whose draws for chosen trials are edited.

    ``edits`` maps a trial, counted in call order from the last ``rewind()``,
    to a function of its draw.
    """

    def __init__(self, dist, edits):
        self.dist, self.edits, self.calls = dist, edits, 0

    def rewind(self):
        self.calls = 0
        return self

    def sample(self, rng, steps):
        w = self.dist.sample(rng, steps)
        edit = self.edits.get(self.calls)
        self.calls += 1
        return w if edit is None else edit(w)


def mc_instance(seed, n, m, T):
    rng = np.random.default_rng(seed)
    sys_ = random_controllable_system(n, m, -1.2, 1.2, rng, x0=rng.standard_normal(n))
    sched = CostSchedule(
        tuple(np.eye(n) * (0.5 + rng.random()) for _ in range(T)),
        tuple(np.eye(m) * (0.5 + rng.random()) for _ in range(T - 1)),
    )
    # The LQR gain of identity costs stabilizes the tracking loop for any m.
    P = solve_dare(sys_.A, sys_.B, np.eye(n), np.eye(m))
    BP = sys_.B.T @ P
    K = -np.linalg.solve(np.eye(m) + BP @ sys_.B, BP @ sys_.A)
    return FrozenPlanner(sys_, sched), K, DisturbanceModel(0.5 * np.eye(n)), rng


class TestExpectedRegretMc:
    def test_zero_covariance_collapses(self):
        rng = np.random.default_rng(5)
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched = varying_schedule(rng, 1, 8)
        K = place_poles_single_input(sys_, [0.1])
        dist = DisturbanceModel(np.zeros((1, 1)))
        planner = FrozenPlanner(sys_, sched)
        report = expected_regret_mc(planner, PolicyConfig(1, K), dist, trials=5, master_seed=0)
        deterministic = regret(prediction_tracking_policy(sys_, sched, PolicyConfig(1, K)), sys_, sched)
        assert report.stderr == 0.0
        assert report.regret == pytest.approx(deterministic.regret, rel=1e-9, abs=1e-9)
        assert report == looped_expected_regret(planner, PolicyConfig(1, K), dist, 5, 0)

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(6)
        sys_ = scalar_system(0.8, 1.0, 2.0)
        sched = varying_schedule(rng, 1, 8)
        K = place_poles_single_input(sys_, [0.1])
        dist = DisturbanceModel(0.5 * np.eye(1))
        cfg = PolicyConfig(1, K)
        a = expected_regret_mc(FrozenPlanner(sys_, sched), cfg, dist, trials=6, master_seed=17)
        b = expected_regret_mc(FrozenPlanner(sys_, sched), cfg, dist, trials=6, master_seed=17)
        assert a.regret == b.regret
        assert a.stderr == b.stderr

    def test_matches_per_trial_comparator_loop(self):
        # The comparator reads the planner's true pass; the report must equal
        # a loop that solves that pass again.
        rng = np.random.default_rng(9)
        sys_ = random_controllable_system(3, 1, -1.0, 1.0, rng)
        sched = varying_schedule(rng, 3, 15)
        K = place_poles_single_input(sys_, [0.1, 0.2, 0.3])
        planner = FrozenPlanner(sys_, sched)
        dist = DisturbanceModel(0.5 * np.eye(3))
        report = expected_regret_mc(planner, PolicyConfig(2, K), dist, trials=5, master_seed=3)
        assert report == looped_expected_regret(planner, PolicyConfig(2, K), dist, 5, 3)
        assert report.trials == 5 and report.excluded_trials == 0

    def blow_up_plans(self, monkeypatch, trials):
        # The tracker's planned controls of the given trials of a block are inf.
        plan_points = FrozenPlanner.plan_points

        def blown_plan(planner, W, w=None):
            xs, us = plan_points(planner, W, w)
            us[list(trials)] = np.inf
            return xs, us

        monkeypatch.setattr(FrozenPlanner, "plan_points", blown_plan)

    def test_overflow_trials_excluded(self, monkeypatch):
        planner, K, dist, _ = mc_instance(1, 2, 1, 6)
        cfg = PolicyConfig(1, K)
        reference = looped_expected_regret(planner, cfg, dist, 6, 0, drop={0, 2, 4})
        self.blow_up_plans(monkeypatch, [0, 2, 4])
        report = expected_regret_mc(planner, cfg, dist, trials=6, master_seed=0)
        assert report.excluded_trials == 3
        assert report.trials == 3
        assert report == reference

    def test_all_failures_raise(self, monkeypatch):
        planner, K, dist, _ = mc_instance(2, 1, 1, 5)
        self.blow_up_plans(monkeypatch, range(4))
        with pytest.raises(AllTrialsFailedError):
            expected_regret_mc(planner, PolicyConfig(1, K), dist, trials=4, master_seed=0)

    def test_comparator_overflow_excludes_its_trial(self, monkeypatch):
        # Only trial 1's comparator overflows: its feedforward is 1e200, so
        # its cost is not finite. The trial is excluded, the others stand.
        planner, K, dist, _ = mc_instance(3, 3, 1, 12)
        cfg = PolicyConfig(2, K)
        reference = looped_expected_regret(planner, cfg, dist, 5, 4, drop={1})
        clairvoyant_law = preview_lqr.regret.clairvoyant_law

        def blown_feedforward(*args):
            L, r, l = clairvoyant_law(*args)
            l[1] = 1e200
            return L, r, l

        monkeypatch.setattr(preview_lqr.regret, "clairvoyant_law", blown_feedforward)
        report = expected_regret_mc(planner, cfg, dist, trials=5, master_seed=4)
        assert (report.trials, report.excluded_trials) == (4, 1)
        assert report == reference

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        T=st.integers(2, 25),
        trials=st.integers(1, 6),
        edit=st.sampled_from([None, "zero", 1e160, np.inf, np.nan]),
        tiny_blocks=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, m=1, T=2, trials=1, edit="zero", tiny_blocks=False, seed=0)
    @example(n=3, m=2, T=25, trials=6, edit=np.inf, tiny_blocks=True, seed=1)
    def test_matches_looped_estimate(self, n, m, T, trials, edit, tiny_blocks, seed):
        # One trial's draw is all zero, of either sign, or has one entry
        # blown up; the report equals the per-trial loop's with ==.
        planner, K, dist, rng = mc_instance(seed, n, m, T)
        cfg = PolicyConfig(int(rng.integers(T - 1)), K)
        target, where = int(rng.integers(trials)), (int(rng.integers(T - 1)), int(rng.integers(n)))
        signs = np.where(rng.random((T - 1, n)) < 0.5, 0.0, -0.0)

        def edited(w):
            if edit == "zero":
                return signs.copy()
            w[where] = edit
            return w

        dist = EditedDisturbance(dist, {} if edit is None else {target: edited})
        try:
            reference = looped_expected_regret(planner, cfg, dist.rewind(), trials, seed)
        except AllTrialsFailedError:
            reference = AllTrialsFailedError
        block = 1 if tiny_blocks else preview_lqr.regret.MC_BLOCK_BYTES
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(preview_lqr.regret, "MC_BLOCK_BYTES", block)
            if reference is AllTrialsFailedError:
                with pytest.raises(AllTrialsFailedError):
                    expected_regret_mc(planner, cfg, dist.rewind(), trials, seed)
            else:
                assert expected_regret_mc(planner, cfg, dist.rewind(), trials, seed) == reference

    def test_block_size_does_not_matter(self, monkeypatch):
        # Blocks of one trial and one block of every trial give one report,
        # with a zero draw and an overflowing draw among the trials.
        planner, K, dist, _ = mc_instance(4, 4, 1, 30)
        dist = EditedDisturbance(dist, {2: np.zeros_like, 5: lambda w: w * 1e160})
        cfg = PolicyConfig(3, K)
        reports = []
        for block in (1, 2**62, preview_lqr.regret.MC_BLOCK_BYTES):
            monkeypatch.setattr(preview_lqr.regret, "MC_BLOCK_BYTES", block)
            reports.append(expected_regret_mc(planner, cfg, dist.rewind(), 9, 11))
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].excluded_trials == 1
        assert reports[0] == looped_expected_regret(planner, cfg, dist.rewind(), 9, 11)

    def test_rejects_bad_arguments(self):
        planner, K, dist, _ = mc_instance(5, 2, 1, 6)
        with pytest.raises(ValueError, match="trials"):
            expected_regret_mc(planner, PolicyConfig(1, K), dist, trials=0, master_seed=0)
        with pytest.raises(ValueError, match="W must satisfy"):
            expected_regret_mc(planner, PolicyConfig(5, K), dist, trials=2, master_seed=0)


class TestPairedRegrets:
    """Each W of one batched call is what its own tracker and baseline runs give."""

    def instance(self, T=20):
        sys_ = inverted_pendulum()
        bounds = pendulum_cost_bounds()
        sched = random_uniform_schedule(bounds, T, np.random.default_rng(2))
        K = place_poles_single_input(sys_, default_tracking_poles(4))
        P_max = solve_dare(sys_.A, sys_.B, bounds.Q_max, bounds.R_max)
        return sys_, bounds, sched, K, P_max

    def per_w(self, sys_, bounds, sched, K, P_max, W, w=None):
        # The first error of the tracker, the baseline, then the regret.
        planner = FrozenPlanner(sys_, sched)
        try:
            ours = prediction_tracking_policy(sys_, sched, PolicyConfig(W, K), w, planner=planner)
            base = mpc_baseline_policy(sys_, sched, bounds, W, w, P_max=P_max)
        except (ValueError, TrajectoryOverflowError) as err:
            return err
        if w is None:
            true_sol = planner.solution(sched.horizon - 1)
            return tuple(
                regret_via_control_deviation(traj, sys_, sched, true_sol) for traj in (ours, base)
            )
        opt = clairvoyant_policy(sys_, sched, w)
        return ours.cost - opt.cost, base.cost - opt.cost

    def assert_same(self, got, ref):
        if isinstance(ref, Exception):
            assert (type(got), str(got)) == (type(ref), str(ref))
        else:
            assert got == ref

    @pytest.mark.parametrize("noisy", [False, True])
    def test_each_w_matches_its_own_runs(self, noisy):
        sys_, bounds, sched, K, P_max = self.instance()
        w = DisturbanceModel(25.0 * np.eye(4)).sample(np.random.default_rng(3), 19) if noisy else None
        Ws = [0, 3, 18, 19, -1]
        got = paired_regrets(FrozenPlanner(sys_, sched), K, Ws, P_max, w)
        assert len(got) == len(Ws)
        for W, pair in zip(Ws, got):
            self.assert_same(pair, self.per_w(sys_, bounds, sched, K, P_max, W, w))
        assert isinstance(got[3], ValueError) and isinstance(got[4], ValueError)

    def test_first_error_wins(self, monkeypatch):
        # W = 2: the tracker's cost and the baseline's state overflow, and the
        # tracker's error is returned. W = 3: only the baseline overflows.
        sys_, bounds, sched, K, P_max = self.instance()
        plan_points, baseline_law = FrozenPlanner.plan_points, preview_lqr.policies.baseline_law

        def blown_plan(planner, W, w=None):
            xs, us = plan_points(planner, W, w)
            return (xs, np.full_like(us, 1e200)) if W == 2 else (xs, us)

        def blown_gains(sys_, sched, W, P_max):
            gains, r, l = baseline_law(sys_, sched, W, P_max)
            return gains * (1e200 if W in (2, 3) else 1.0), r, l

        monkeypatch.setattr(FrozenPlanner, "plan_points", blown_plan)
        monkeypatch.setattr(preview_lqr.policies, "baseline_law", blown_gains)
        monkeypatch.setattr(preview_lqr.regret, "baseline_law", blown_gains)
        got = paired_regrets(FrozenPlanner(sys_, sched), K, [2, 3, 4], P_max)
        for W, pair in zip([2, 3, 4], got):
            self.assert_same(pair, self.per_w(sys_, bounds, sched, K, P_max, W))
        assert [str(pair) for pair in got[:2]] == [
            "non-finite cost",
            "non-finite state at time index 2",
        ]
        assert isinstance(got[2], tuple)


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


def reference_phi_metric(sys, schedule_spec, T, W, trials, master_seed, dist=None, poles=None):
    # phi_metric as written before paired_regrets: both policies run inline,
    # and a noisy trial solves its comparator's backward pass itself.
    K_track = place_poles_single_input(
        sys, poles if poles is not None else default_tracking_poles(sys.n)
    )
    cfg = PolicyConfig(W, K_track)
    fixed_schedule = isinstance(schedule_spec, CostSchedule)
    if fixed_schedule:
        ext = sequence_extrema(schedule_spec)
        bounds = CostBounds(ext.Qbar_min, ext.Qbar_max, ext.Rbar_min, ext.Rbar_max)
    else:
        bounds = schedule_spec
    P_max = solve_dare(sys.A, sys.B, bounds.Q_max, bounds.R_max)
    gaps = []
    for trial in range(trials):
        if fixed_schedule:
            schedule = schedule_spec
        else:
            rng = generator(master_seed, "phi", "schedule", T, W, trial)
            schedule = random_uniform_schedule(schedule_spec, T, rng)
        w = None
        if dist is not None:
            rng_w = generator(master_seed, "phi", "disturbance", T, W, trial)
            w = dist.sample(rng_w, T - 1)
        planner = FrozenPlanner(sys, schedule)
        try:
            ours = prediction_tracking_policy(sys, schedule, cfg, w, planner=planner)
            base = mpc_baseline_policy(sys, schedule, bounds, W, w, P_max=P_max)
        except TrajectoryOverflowError:
            continue
        if w is None:
            true_sol = planner.solution(T - 1)
            gaps.append(
                regret_via_control_deviation(base, sys, schedule, solution=true_sol)
                - regret_via_control_deviation(ours, sys, schedule, solution=true_sol)
            )
        else:
            opt = clairvoyant_policy(sys, schedule, w)
            gaps.append((base.cost - opt.cost) - (ours.cost - opt.cost))
    return float(np.mean(gaps))


class TestPhiMetricMatchesReference:
    """``phi_metric`` through ``paired_regrets`` equals the inline loop bit for bit."""

    @pytest.mark.parametrize("noisy", [False, True])
    def test_pendulum(self, noisy):
        dist = DisturbanceModel(25.0 * np.eye(4)) if noisy else None
        args = (inverted_pendulum(), pendulum_cost_bounds(), 30, 3, 3, 1, dist)
        assert phi_metric(*args) == reference_phi_metric(*args)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_fixed_schedule(self, noisy):
        dist = DisturbanceModel(25.0 * np.eye(4)) if noisy else None
        sched = random_uniform_schedule(pendulum_cost_bounds(), 25, np.random.default_rng(4))
        args = (inverted_pendulum(), sched, 25, 5, 2, 2, dist)
        assert phi_metric(*args) == reference_phi_metric(*args)

    @pytest.mark.parametrize("noisy", [False, True])
    def test_random_system(self, noisy):
        sys_ = random_controllable_system(3, 1, 0.0, 2.0, np.random.default_rng(1))
        bounds = CostBounds(0.5 * np.eye(3), 3.0 * np.eye(3), [[0.4]], [[1.8]])
        dist = DisturbanceModel(np.eye(3)) if noisy else None
        args = (sys_, bounds, 25, 4, 3, 0, dist, (0.1, 0.2, 0.3))
        assert phi_metric(*args) == reference_phi_metric(*args)


class TestRegretReport:
    def test_defaults(self):
        report = RegretReport(regret=1.0, cost_policy=3.0, cost_optimal=2.0)
        assert report.trials == 1
        assert report.excluded_trials == 0


def test_package_attribute_is_the_regret_module():
    # The package exports no function under the module's name.
    assert preview_lqr.regret.phi_metric is phi_metric
    assert preview_lqr.regret.regret is regret
