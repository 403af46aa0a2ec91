import numpy as np
import pytest

from preview_lqr import cli, experiments
from preview_lqr.cli import cli_main
from preview_lqr.costs import CostBounds
from preview_lqr.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    GridResult,
    GridRow,
    emit_csv,
    emit_heatmap_svg,
    parse_csv,
    run_grid,
)
from preview_lqr.riccati import DareConvergenceError


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

    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["pendulum-grid", "--no-such-flag"]) == 2
        assert cli_main([]) == 2

    def test_bound_check_prints_constants(self, capsys):
        code = cli_main(["bound-check", "--t", "20", "--w", "2", "--seed", "0"])
        assert code == 0
        text = capsys.readouterr().out
        for token in ("eta", "gamma", "q", "bound value", "sufficient condition"):
            assert token in text

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

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense line without equals\n")
        assert cli_main(["pendulum-grid", "--config", str(bad)]) == 2

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
