import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from preview_lqr import bounds, cli, experiments, policies, regret, verification
from preview_lqr.bounds import compute_bound_constants, regret_upper_bound, sufficient_condition_check
from preview_lqr.cli import cli_main
from preview_lqr.costs import CostBounds, random_uniform_schedule
from preview_lqr.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    GridResult,
    GridRow,
    emit_csv,
    emit_heatmap_svg,
    parse_csv,
    pendulum_cost_bounds,
    run_grid,
)
from preview_lqr.regret import paired_regrets, regret_via_control_deviation
from preview_lqr.riccati import DareConvergenceError, _only, backward_riccati, solve_dare
from preview_lqr.seeding import generator
from preview_lqr.systems import DisturbanceModel, inverted_pendulum
from test_policies import stalled_plans_instance


def small_config(**overrides):
    base = dict(
        scenario="pendulum",
        t_min=12,
        t_max=24,
        t_step=12,
        w_min=0,
        w_max=3,
        trials=2,
        master_seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def random_rows(rng, count):
    rows = []
    for _ in range(count):
        rows.append(
            GridRow(
                T=int(rng.integers(5, 100)),
                W=int(rng.integers(0, 10)),
                phi_mean=float(rng.standard_normal() * 10.0 ** float(rng.integers(-8, 8))),
                phi_stderr=float(abs(rng.standard_normal())),
                regret_ours_mean=float(abs(rng.standard_normal()) * 1e5),
                regret_mpc_mean=float(abs(rng.standard_normal()) * 1e5),
                bound=float(abs(rng.standard_normal()) * 1e70),
                margin_min=float(rng.standard_normal() * 1e69),
                sufficient_condition=bool(rng.integers(0, 2)),
                excluded_trials=int(rng.integers(0, 3)),
                clamped=bool(rng.integers(0, 2)),
            )
        )
    return rows


class TestEmitCsv:
    def test_empty_grid_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(GridResult(rows=()), path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_cell_two_lines(self, tmp_path):
        rows = random_rows(np.random.default_rng(0), 1)
        path = tmp_path / "one.csv"
        emit_csv(GridResult(rows=tuple(rows)), path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        rows = random_rows(rng, 25)
        path = tmp_path / "grid.csv"
        emit_csv(GridResult(rows=tuple(rows)), path)
        parsed = parse_csv(path)
        expected = sorted(rows, key=lambda r: (r.T, r.W))
        assert list(parsed.rows) == expected

    def test_rows_sorted(self, tmp_path):
        rng = np.random.default_rng(8)
        rows = random_rows(rng, 12)
        path = tmp_path / "grid.csv"
        emit_csv(GridResult(rows=tuple(rows)), path)
        parsed = parse_csv(path)
        keys = [(r.T, r.W) for r in parsed.rows]
        assert keys == sorted(keys)

    def test_header_and_round_trip_cover_every_field_type(self, tmp_path):
        # The columns are GridRow's fields; extreme values of each kind
        # (int, float, bool) come back unchanged.
        assert CSV_HEADER.split(",") == [f.name for f in dataclasses.fields(GridRow)]
        edge = (5e-324, -0.0, math.inf, -math.inf, math.nan, 1.0 / 3.0)
        rows = tuple(
            GridRow(
                T=10**12 + i, W=i, phi_mean=v, phi_stderr=-v, regret_ours_mean=v,
                regret_mpc_mean=1.7976931348623157e308, bound=v, margin_min=v,
                sufficient_condition=i % 2 == 0, excluded_trials=10**9 * i,
                clamped=i % 2 == 1,
            )
            for i, v in enumerate(edge)
        )
        path = tmp_path / "edge.csv"
        emit_csv(GridResult(rows=rows), path)
        parsed = parse_csv(path).rows
        assert len(parsed) == len(rows)
        for got, want in zip(parsed, rows):
            for f in dataclasses.fields(GridRow):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert type(a) is type(b)
                assert repr(a) == repr(b), f.name
        again = tmp_path / "again.csv"
        emit_csv(GridResult(rows=parsed), again)
        assert again.read_bytes() == path.read_bytes()

    def test_write_error_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            emit_csv(GridResult(rows=()), tmp_path / "no" / "such" / "dir.csv")


class TestEmitHeatmap:
    def test_single_cell_has_one_data_rect(self, tmp_path):
        rows = random_rows(np.random.default_rng(1), 1)
        text = emit_heatmap_svg(GridResult(rows=tuple(rows)), "phi_mean")
        assert text.count('class="cell"') == 1

    def test_all_positive_grid_renders_warm_side(self):
        rng = np.random.default_rng(2)
        rows = [
            GridRow(T, W, float(rng.random() + 0.1), 0.0, 1.0, 1.0, 1.0, 1.0, False, 0, False)
            for T in (10, 20)
            for W in (0, 1)
        ]
        text = emit_heatmap_svg(GridResult(rows=tuple(rows)), "phi_mean")
        for line in text.splitlines():
            if 'class="cell"' in line:
                fill = line.split('fill="')[1][:7]
                r, g, b = (int(fill[i : i + 2], 16) for i in (1, 3, 5))
                assert r >= g and r >= b

    def test_byte_deterministic(self):
        rows = tuple(random_rows(np.random.default_rng(3), 9))
        a = emit_heatmap_svg(GridResult(rows=rows), "phi_mean")
        b = emit_heatmap_svg(GridResult(rows=rows), "phi_mean")
        assert a == b

    def test_unknown_metric_rejected(self):
        rows = tuple(random_rows(np.random.default_rng(4), 2))
        with pytest.raises(ValueError, match="unknown metric"):
            emit_heatmap_svg(GridResult(rows=rows), "nope")

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            emit_heatmap_svg(GridResult(rows=()), "phi_mean")


class TestRunGrid:
    def test_deterministic_repeat(self):
        cfg = small_config(trials=1)
        a = run_grid(cfg)
        b = run_grid(cfg)
        assert a.rows == b.rows

    def test_worker_count_invariance(self):
        cfg = small_config()
        serial = run_grid(cfg, workers=1)
        parallel = run_grid(cfg, workers=3)
        assert serial.rows == parallel.rows
        assert serial.failures == parallel.failures

    def test_cells_do_not_depend_on_other_requested_cells(self):
        full = run_grid(small_config(t_min=60, t_max=60, w_min=0, w_max=8))
        part = run_grid(small_config(t_min=60, t_max=60, w_min=3, w_max=8))
        assert part.rows == tuple(r for r in full.rows if r.W >= 3)

    def test_dare_failure_excludes_the_trial(self, monkeypatch):
        def no_fixed_point(*args, **kwargs):
            raise DareConvergenceError("no fixed point")

        monkeypatch.setattr(experiments, "solve_dare", no_fixed_point)
        res = run_grid(small_config(t_min=12, t_max=12, w_max=1, trials=1))
        assert res.rows == ()
        reason = "DareConvergenceError: no fixed point"
        assert res.failures == ((12, 0, reason), (12, 1, reason))

    def test_one_constants_call_per_trial(self, monkeypatch):
        cfg = small_config(t_min=4, t_max=24, t_step=10, w_max=5, trials=2)
        calls = []

        def counting(planner, K_track, Ws, cost_bounds=None):
            calls.append((planner.T, list(Ws)))
            return compute_bound_constants(planner, K_track, Ws, cost_bounds)

        monkeypatch.setattr(experiments, "compute_bound_constants", counting)
        run_grid(cfg)
        # Clamped preview lengths are evaluated once.
        assert calls == [(4, [0, 1, 2])] * 2 + [(T, list(range(6))) for T in (14, 24) for _ in range(2)]

    def test_constants_failure_excludes_every_w_of_the_trial(self, monkeypatch):
        def no_fixed_point(*args, **kwargs):
            raise DareConvergenceError("no fixed point")

        monkeypatch.setattr(bounds, "solve_dare", no_fixed_point)
        cfg = small_config(t_min=12, t_max=12, w_max=2, trials=1)
        outcome = experiments._evaluate_trial(cfg, 12, 0)
        assert outcome == {W: "DareConvergenceError: no fixed point" for W in range(3)}
        assert outcome == per_w_evaluate_trial(cfg, 12, 0)

    def test_shape_bug_propagates(self, monkeypatch):
        # Only numerical failures exclude a trial; a tracking gain of the
        # wrong shape is a programming error and must surface.
        trial_system = experiments._trial_system

        def transposed_gain(config, T, trial):
            sys_, K_track = trial_system(config, T, trial)
            return sys_, K_track.T

        monkeypatch.setattr(experiments, "_trial_system", transposed_gain)
        with pytest.raises(ValueError, match="K_track must have shape"):
            run_grid(small_config(t_min=12, t_max=12, w_max=1, trials=1))

    def test_unstable_tracking_gain_excludes_the_trial(self, monkeypatch):
        # The inverted pendulum is open-loop unstable, so a zero gain leaves
        # rho(A + B K) >= 1: a numerical failure of the trial, not an error.
        def zero_gain(config, T, trial):
            sys_ = inverted_pendulum(np.asarray(config.x0))
            return sys_, np.zeros((1, 4))

        monkeypatch.setattr(experiments, "_trial_system", zero_gain)
        res = run_grid(small_config(t_min=12, t_max=12, w_max=1, trials=1))
        assert res.rows == ()
        assert [f[:2] for f in res.failures] == [(12, 0), (12, 1)]
        assert all(f[2].startswith("UnstableTrackingError: tracking gain") for f in res.failures)

    def test_huge_regrets_give_a_finite_stderr(self):
        # The regrets reach about 1e160, where the squares in the standard
        # deviation overflow unless the regrets are scaled first.
        cfg = small_config(
            scenario="random-disturbance", t_min=10, t_max=40, t_step=30, w_max=4,
            trials=3, master_seed=2, disturbance_cov_scale=1e150,
        )
        result = run_grid(cfg)
        assert len(result.rows) == 10 and result.failures == ()
        assert min(abs(row.phi_mean) for row in result.rows) > 1e159
        assert all(0.0 < row.phi_stderr < math.inf for row in result.rows)

    def test_pendulum_never_excludes(self):
        cfg = small_config(trials=3)
        res = run_grid(cfg)
        assert all(r.excluded_trials == 0 for r in res.rows)
        assert res.failures == ()

    def test_full_preview_cells_near_zero(self):
        cfg = small_config(t_min=12, t_max=12, w_min=10, w_max=10, trials=2)
        res = run_grid(cfg)
        row = res.rows[0]
        assert not row.clamped  # W = T - 2 is the largest legal preview
        assert abs(row.phi_mean) <= 1e-6
        assert abs(row.regret_ours_mean) <= 1e-6

    def test_clamped_cells_marked_and_computed(self):
        cfg = small_config(t_min=6, t_max=6, w_min=0, w_max=8, trials=1)
        res = run_grid(cfg)
        by_w = {r.W: r for r in res.rows}
        assert len(res.rows) == 9
        assert not by_w[3].clamped
        for W in (5, 6, 7, 8):
            assert by_w[W].clamped
            assert by_w[W].phi_mean == by_w[4].phi_mean

    def test_grid_cardinality(self):
        cfg = small_config(t_min=10, t_max=40, t_step=10, w_min=0, w_max=5, trials=1)
        res = run_grid(cfg)
        assert len(res.rows) == 4 * 6

    def test_margin_dominance_on_disturbance_free(self):
        cfg = small_config(trials=2)
        res = run_grid(cfg)
        for row in res.rows:
            assert row.margin_min >= -1e-6 * row.bound

    def test_noisy_scenario_runs(self):
        cfg = small_config(scenario="pendulum-disturbance", trials=2, w_max=2)
        res = run_grid(cfg)
        assert len(res.rows) == 2 * 3
        assert all(np.isfinite(r.phi_mean) for r in res.rows)

    def test_noisy_cells_match_per_trial_comparator(self, monkeypatch):
        # A noisy trial reads the comparator's true pass from its planner;
        # solving it again per trial must give the same cells bit for bit.
        cfg = small_config(scenario="pendulum-disturbance", trials=2, w_max=2)
        shared = run_grid(cfg)

        def per_trial(sys_, sol, w):
            return policies.clairvoyant_law(sys_, backward_riccati(sys_, sol.schedule), w)

        monkeypatch.setattr(regret, "clairvoyant_law", per_trial)
        assert run_grid(cfg) == shared

    def test_least_margin_trial_supplies_bound_first_on_ties(self):
        # Outcomes are (regret_ours, regret_baseline, bound, sufficient_condition).
        outcomes = [
            {0: "ValueError: first"},
            {0: (1.0, 2.0, 9.0, False)},
            {0: (2.0, 3.0, 6.0, True)},  # margin 4, tied with the next trial
            {0: (0.0, 1.0, 4.0, False)},
            {0: "ValueError: second"},
        ]
        row, failure = experiments._aggregate_cell(12, 0, outcomes)
        assert failure is None
        assert (row.bound, row.margin_min, row.sufficient_condition) == (6.0, 4.0, True)
        assert row.excluded_trials == 2
        row, failure = experiments._aggregate_cell(12, 0, [outcomes[0], outcomes[4]])
        assert row is None and failure == (12, 0, "ValueError: first")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(scenario="unknown")
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(t_min=1)

    def test_config_rejects_other_state_dimensions(self):
        # Every scenario builds a 4-state, single-input system.
        with pytest.raises(ValueError, match="x0 must have length 4, got 3"):
            small_config(x0=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="4x4 Q and 1x1 R"):
            small_config(bounds=CostBounds(np.eye(3), 2 * np.eye(3), [[1.0]], [[2.0]]))
        with pytest.raises(ValueError, match="4x4 Q and 1x1 R"):
            small_config(bounds=CostBounds(np.eye(4), 2 * np.eye(4), np.eye(2), 2 * np.eye(2)))


def per_w_evaluate_trial(config, T, trial):
    # _evaluate_trial as written before the closed loops were batched over W:
    # per preview length the tracker, the baseline and the regret run alone.
    try:
        sys_, K_track = experiments._trial_system(config, T, trial)
        P_max = solve_dare(sys_.A, sys_.B, config.bounds.Q_max, config.bounds.R_max)
        schedule = random_uniform_schedule(
            config.bounds, T, generator(config.master_seed, config.scenario, T, trial, "schedule")
        )
        planner = policies.FrozenPlanner(sys_, schedule)
        w = opt_cost = None
        if config.noisy:
            dist = DisturbanceModel(config.disturbance_cov_scale * np.eye(sys_.n))
            w = dist.sample(
                generator(config.master_seed, config.scenario, T, trial, "disturbance"), T - 1
            )
            true_sol = planner.solution()
            opt_cost = policies.clairvoyant_policy(sys_, schedule, w, solution=true_sol).cost
    except experiments._TRIAL_ERRORS as err:
        return {W: f"{type(err).__name__}: {err}" for W in config.w_values}
    out, computed = {}, {}
    for W in config.w_values:
        W_eff = min(W, T - 2)
        if W_eff not in computed:
            try:
                cfg = policies.PolicyConfig(W_eff, K_track)
                # A noisy tracker runs on a planner of its own w and W.
                tracker = planner if w is None else policies.FrozenPlanner(sys_, schedule, w, [W_eff])
                ours = policies.prediction_tracking_policy(sys_, schedule, cfg, planner=tracker)
                base = policies.mpc_baseline_policy(
                    sys_, schedule, config.bounds, W_eff, w, P_max=P_max
                )
                true_sol = planner.solution()
                if w is None:
                    regrets = tuple(
                        regret_via_control_deviation(traj, sys_, schedule, solution=true_sol)
                        for traj in (ours, base)
                    )
                else:
                    regrets = (ours.cost - opt_cost, base.cost - opt_cost)
                constants = _only(compute_bound_constants(planner, K_track, [W_eff]))
                bound = regret_upper_bound(constants, T, W_eff, sys_.x0)
                suff = sufficient_condition_check(constants, config.bounds, sys_)
                computed[W_eff] = (*regrets, bound, suff)
            except experiments._TRIAL_ERRORS as err:
                computed[W_eff] = f"{type(err).__name__}: {err}"
        out[W] = computed[W_eff]
    return out


class TestOneSweepPerPlanner:
    """No planner sweeps twice: noisy plans are requested before the sweep,
    and the verify suites read every pass's value matrices from the sweep's
    own steps, not from a planner."""

    @pytest.fixture
    def sweeps_per_planner(self, monkeypatch):
        planners, swept = [], []
        init, sweep = policies.FrozenPlanner.__init__, policies.frozen_backward_sweep

        def recording_init(planner, *args, **kwargs):
            init(planner, *args, **kwargs)
            planners.append(planner)

        def counting_sweep(sys_, schedule, w=None, Ws=()):
            swept.append(schedule)
            return sweep(sys_, schedule, w, Ws)

        monkeypatch.setattr(policies.FrozenPlanner, "__init__", recording_init)
        monkeypatch.setattr(policies, "frozen_backward_sweep", counting_sweep)

        def counts():
            assert planners and len(swept) == len(planners)
            return [sum(schedule is p.schedule for schedule in swept) for p in planners]

        return counts

    @pytest.mark.parametrize("scenario", ["pendulum", "pendulum-disturbance"])
    def test_grid(self, sweeps_per_planner, scenario):
        run_grid(small_config(scenario=scenario, t_min=10, t_max=20, t_step=10, w_max=3))
        assert set(sweeps_per_planner()) == {1}

    def test_scaling_certificate(self, sweeps_per_planner):
        dist = DisturbanceModel(25.0 * np.eye(4))
        bounds.scaling_certificate(inverted_pendulum(), pendulum_cost_bounds(), dist, (12, 20), 3, 3, 0)
        assert sweeps_per_planner() == [1, 1]

    def test_verify_suites(self, sweeps_per_planner):
        assert all(check.passed for check in verification.run_all(0, instances=4, oracle_instances=2))
        assert sweeps_per_planner() == [1, 1, 1, 1]


class TestTrialsBatchedOverW:
    """One batched ``paired_regrets`` per trial gives the per-W trials' grid."""

    @pytest.mark.parametrize("scenario", ["pendulum", "pendulum-disturbance", "random"])
    def test_rows_match_per_w_trials(self, monkeypatch, scenario):
        cfg = small_config(scenario=scenario, t_min=4, t_max=24, t_step=10, w_max=6, trials=3)
        batched = run_grid(cfg)
        assert any(row.clamped for row in batched.rows)
        monkeypatch.setattr(experiments, "_evaluate_trial", per_w_evaluate_trial)
        assert run_grid(cfg) == batched

    def test_one_overflowing_preview_length(self, monkeypatch):
        # The first trial's tracker overflows at W = 2 alone.
        cfg = small_config(t_min=12, t_max=12, w_max=4, trials=2)
        plan_points, planners = policies.FrozenPlanner.plan_points, []

        def blow_up_first_trial(planner, W):
            xs, us = plan_points(planner, W)
            planners.append(planner)
            return (xs, np.full_like(us, 1e307)) if W == 2 and planner is planners[0] else (xs, us)

        monkeypatch.setattr(policies.FrozenPlanner, "plan_points", blow_up_first_trial)
        batched = [experiments._evaluate_trial(cfg, 12, trial) for trial in range(2)]
        planners.clear()
        assert [per_w_evaluate_trial(cfg, 12, trial) for trial in range(2)] == batched
        failed = [(trial, W) for trial in range(2) for W, cell in batched[trial].items() if isinstance(cell, str)]
        assert failed == [(0, 2)]
        assert batched[0][2].startswith("TrajectoryOverflowError: non-finite state at time index ")
        planners.clear()
        row = next(row for row in run_grid(cfg).rows if row.W == 2)
        assert row.excluded_trials == 1

    def test_overflowing_sweep_fails_the_trial_once(self, monkeypatch):
        # The stalled plans overflow in the planner's sweep. Every W of the
        # trial reads that error, from one sweep rather than one per W.
        sys_, sched = stalled_plans_instance()
        cfg = small_config(t_min=60, t_max=60, w_max=10, trials=1)
        sweep, swept = policies.frozen_backward_sweep, []

        def counting_sweep(sys_, schedule, w=None, Ws=()):
            swept.append(schedule)
            return sweep(sys_, schedule, w, Ws)

        monkeypatch.setattr(policies, "frozen_backward_sweep", counting_sweep)
        monkeypatch.setattr(experiments, "_trial_system", lambda config, T, trial: (sys_, [[-1.9]]))
        monkeypatch.setattr(experiments, "random_uniform_schedule", lambda bounds, T, rng: sched)
        monkeypatch.setattr(experiments, "solve_dare", lambda A, B, Q, R: np.eye(1))
        outcome = experiments._evaluate_trial(cfg, 60, 0)
        assert swept == [sched]
        assert outcome == dict.fromkeys(range(11), "TrajectoryOverflowError: non-finite planned state")

    def test_misshapen_disturbance_raises_out_of_the_grid(self, monkeypatch):
        cfg = small_config(scenario="pendulum-disturbance", t_min=12, t_max=12, w_max=2, trials=1)
        sys_, K_track = experiments._trial_system(cfg, 12, 0)
        schedule = random_uniform_schedule(cfg.bounds, 12, np.random.default_rng(0))
        P_max = solve_dare(sys_.A, sys_.B, cfg.bounds.Q_max, cfg.bounds.R_max)
        with pytest.raises(ValueError, match="w must have shape"):
            policies.FrozenPlanner(sys_, schedule, np.zeros((12, 4)), [0, 1])
        with pytest.raises(ValueError, match="w must have shape"):
            paired_regrets(policies.FrozenPlanner(sys_, schedule, np.zeros((2, 11, 4)), [0, 1]), K_track, [0, 1], P_max)

        def drop_last_disturbance(sys_, schedule, w, Ws):
            return policies.FrozenPlanner(sys_, schedule, w[:-1], Ws)

        monkeypatch.setattr(experiments, "FrozenPlanner", drop_last_disturbance)
        with pytest.raises(ValueError, match="w must have shape"):
            run_grid(cfg)

    def test_comparator_overflow_excludes_the_trial_at_every_w(self, monkeypatch):
        # Only the first trial's comparator overflows. Its tracker and
        # baseline run, yet every W of that trial is excluded and counted.
        cfg = small_config(scenario="pendulum-disturbance", t_min=12, t_max=12, w_max=3, trials=2)
        clairvoyant_law, calls = regret.clairvoyant_law, []

        def blow_up_first_trial(sys_, sol, w):
            L, r, l = clairvoyant_law(sys_, sol, w)
            calls.append(w)
            return (L, r, np.full_like(l, 1e200)) if len(calls) == 1 else (L, r, l)

        monkeypatch.setattr(regret, "clairvoyant_law", blow_up_first_trial)
        outcomes = [experiments._evaluate_trial(cfg, 12, trial) for trial in range(2)]
        assert all(cell.startswith("TrajectoryOverflowError: ") for cell in outcomes[0].values())
        assert not any(isinstance(cell, str) for cell in outcomes[1].values())
        calls.clear()
        result = run_grid(cfg)
        assert [row.W for row in result.rows] == [0, 1, 2, 3] and not result.failures
        assert all(row.excluded_trials == 1 for row in result.rows)


class TestCli:
    def test_grid_command_writes_expected_rows(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = cli_main(
            [
                "pendulum-grid", "--t-min", "12", "--t-max", "24", "--t-step", "12",
                "--w-max", "2", "--trials", "1", "--seed", "1",
                "--out", str(out), "--svg",
            ]
        )
        assert code == 0
        csv_lines = (out / "pendulum.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 2 * 3
        assert (out / "pendulum.svg").exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        args = [
            "pendulum-grid", "--t-min", "12", "--t-max", "12", "--t-step", "12",
            "--w-max", "2", "--trials", "2", "--seed", "5", "--svg",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b), "--workers", "2"]) == 0
        assert (out_a / "pendulum.csv").read_bytes() == (out_b / "pendulum.csv").read_bytes()
        assert (out_a / "pendulum.svg").read_bytes() == (out_b / "pendulum.svg").read_bytes()

    @pytest.mark.parametrize(
        "command, scenario",
        [
            ("pendulum-grid", "pendulum"),
            ("random-grid", "random"),
            ("disturbance-grid", "pendulum-disturbance"),
        ],
    )
    def test_grid_defaults_are_the_library_defaults(
        self, tmp_path, monkeypatch, command, scenario
    ):
        # With no flags and no config file the grid runs on
        # ExperimentConfig's own defaults and run_grid's worker count.
        calls = []

        def capture(config, **kwargs):
            calls.append((config, kwargs))
            return GridResult(rows=())

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "run_grid", capture)
        assert cli_main([command]) == 0
        (got, kwargs), = calls
        assert kwargs == {}
        want = ExperimentConfig(scenario=scenario)
        for f in dataclasses.fields(ExperimentConfig):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "bounds":
                for name in ("Q_min", "Q_max", "R_min", "R_max"):
                    np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            else:
                assert a == b, f.name
        assert (tmp_path / want.output_dir / f"{scenario}.csv").exists()

    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["pendulum-grid", "--no-such-flag"]) == 2
        assert cli_main([]) == 2

    def test_bound_check_prints_constants(self, capsys):
        code = cli_main(["bound-check", "--t", "20", "--w", "2", "--seed", "0"])
        assert code == 0
        text = capsys.readouterr().out
        for token in ("eta", "gamma", "q", "bound value", "sufficient condition"):
            assert token in text

    def test_bound_check_reads_cost_bounds_from_config(self, tmp_path, capsys):
        def bound_check(*config_lines):
            args = ["bound-check", "--t", "30", "--w", "3"]
            if config_lines:
                cfg_file = tmp_path / "bounds.cfg"
                cfg_file.write_text("\n".join(config_lines) + "\n")
                args += ["--config", str(cfg_file)]
            assert cli_main(args) == 0
            return capsys.readouterr().out

        default = bound_check()
        assert bound_check("q_min = 8e3", "q_max = 3.2e4", "r_min = 2e3", "r_max = 9.8e4") == default
        wider = bound_check("q_max = 6.4e4", "r_max = 2e5")
        pbar = [line for line in wider.splitlines() if "Pbar_max" in line]
        assert pbar and pbar[0] not in default

    def test_disturbance_grid_system_choice(self, tmp_path):
        out = tmp_path / "noise"
        code = cli_main(
            [
                "disturbance-grid", "--system", "pendulum", "--t-min", "12",
                "--t-max", "12", "--t-step", "12", "--w-max", "1",
                "--trials", "1", "--seed", "2", "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "pendulum-disturbance.csv").exists()

    def test_disturbance_grid_system_from_config(self, tmp_path, monkeypatch):
        # The config file picks the system and is read once.
        out = tmp_path / "noise"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "system = random\nt_min = 12\nt_max = 12\nt_step = 12\nw_max = 1\n"
            f"trials = 1\nseed = 2\nout = {out}\n"
        )
        reads = []
        parse = cli._parse_config_file
        monkeypatch.setattr(
            cli, "_parse_config_file", lambda path: reads.append(path) or parse(path)
        )
        assert cli_main(["disturbance-grid", "--config", str(cfg_file)]) == 0
        assert reads == [str(cfg_file)]
        assert (out / "random-disturbance.csv").exists()
        assert not (out / "pendulum-disturbance.csv").exists()

    def test_config_file_overrides_defaults_and_flags_win(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# benchmark settings\n"
            "t_min = 12\n"
            "t_max = 12\n"
            "t-step = 12\n"
            "w_max = 1\n"
            "trials = 1\n"
            "seed = 9\n"
            f"out = {tmp_path / 'from_config'}\n"
        )
        code = cli_main(["pendulum-grid", "--config", str(cfg_file)])
        assert code == 0
        assert (tmp_path / "from_config" / "pendulum.csv").exists()
        code = cli_main(
            ["pendulum-grid", "--config", str(cfg_file), "--out", str(tmp_path / "flag_wins")]
        )
        assert code == 0
        assert (tmp_path / "flag_wins" / "pendulum.csv").exists()

    def test_wrong_x0_length_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "results"
        cfg_file = tmp_path / "f"
        cfg_file.write_text(
            f"x0 = 1,1,1\nt_min = 10\nt_max = 10\nw_max = 2\ntrials = 1\nout = {out}\n"
        )
        assert cli_main(["random-grid", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "x0 must have length 4" in err
        assert not (out / "random.csv").exists()

    @pytest.mark.parametrize(
        "poles, message",
        [
            ("1e-3, 2e-3, 3e-3", "poles must have length 4, got 3"),
            ("1.5, 2e-3, 3e-3, 4e-3", "poles must lie inside the unit circle"),
        ],
    )
    def test_bad_poles_are_usage_error(self, tmp_path, capsys, poles, message):
        out = tmp_path / "results"
        cfg_file = tmp_path / "f"
        cfg_file.write_text(
            f"poles = {poles}\nt_min = 10\nt_max = 10\nw_max = 2\ntrials = 1\nout = {out}\n"
        )
        assert cli_main(["pendulum-grid", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
        assert not (out / "pendulum.csv").exists()

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense line without equals\n")
        assert cli_main(["pendulum-grid", "--config", str(bad)]) == 2

    def test_bad_config_value_names_line_and_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("trials = 1\ncov_scale = abc\n")
        assert cli_main(["disturbance-grid", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: bad value for key 'cov_scale'")
        assert "'abc'" in err

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, via, workers):
        # A workers value below 1 ran the grid serially without a word.
        out = tmp_path / "results"
        args = ["pendulum-grid", "--t-min", "10", "--t-max", "10", "--w-max", "2", "--trials", "1"]
        if via == "flag":
            args += ["--workers", str(workers)]
        else:
            cfg_file = tmp_path / "f"
            cfg_file.write_text(f"workers = {workers}\n")
            args += ["--config", str(cfg_file)]
        assert cli_main(args + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: workers must be at least 1, got {workers}\n"
        assert not (out / "pendulum.csv").exists()

    def test_verify_passes_on_clean_build(self, capsys):
        assert cli_main(["verify", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "verification passed" in out
        assert "FAIL" not in out

    def test_verify_failure_exit_code(self, monkeypatch, capsys):
        from preview_lqr import verification

        def fake_run_all(seed=0, **kwargs):
            return [verification.CheckResult("stub", False, "forced failure")]

        monkeypatch.setattr(verification, "run_all", fake_run_all)
        assert cli_main(["verify"]) == 1
        assert "FAILED" in capsys.readouterr().out


DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demo_grid_reproduces_committed_csv(tmp_path):
    # Any change that moves a grid output has to regenerate this file, and
    # only once the round-off contract of tests/roundoff.py accepts it.
    spec = importlib.util.spec_from_file_location(
        "grid_heatmap", DEMOS / "grid_heatmap.py"
    )
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    path = tmp_path / "pendulum.csv"
    emit_csv(run_grid(demo.CONFIG, workers=1), path)
    assert path.read_bytes() == (DEMOS / "output" / "pendulum.csv").read_bytes()


@pytest.mark.parametrize(
    "script", ["bound_constants.py", "pendulum_tracking.py", "disturbance_scaling.py"]
)
def test_demo_runs(script):
    path = [str(DEMOS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
