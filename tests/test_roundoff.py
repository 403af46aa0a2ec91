import dataclasses

import numpy as np
import pytest

from preview_lqr.bounds import scaling_certificate
from preview_lqr.experiments import ExperimentConfig, pendulum_cost_bounds, run_grid
from preview_lqr.systems import DisturbanceModel, inverted_pendulum
from roundoff import (
    certificate_floors,
    compare_grids,
    grid_floors,
    report_values,
)

FLOATS = ("phi_mean", "phi_stderr", "regret_ours_mean", "regret_mpc_mean", "bound", "margin_min")


@pytest.fixture(scope="module", params=["pendulum", "random-disturbance"])
def grid(request):
    config = ExperimentConfig(
        scenario=request.param, t_min=10, t_max=20, t_step=10, w_max=3, trials=2, master_seed=1
    )
    return run_grid(config).rows, grid_floors(config)


class TestCompareGrids:
    def test_accepts_identical_grids_with_positive_floors(self, grid):
        rows, floors = grid
        assert len(floors) == len(rows) == 8
        for f in floors:
            assert all(np.isfinite(f[name]) and f[name] > 0.0 for name in FLOATS)
        assert compare_grids(rows, rows, floors) == []

    @pytest.mark.parametrize("name", FLOATS)
    def test_rejects_a_cell_moved_beyond_its_floor(self, grid, name):
        rows, floors = grid
        i = len(rows) // 2
        value, floor = getattr(rows[i], name), floors[i][name]
        within = list(rows)
        within[i] = dataclasses.replace(rows[i], **{name: value + 0.5 * floor})
        assert compare_grids(rows, within, floors) == []
        # 1e-9 relative above the floor.
        moved = value + floor + 1e-9 * abs(value)
        beyond = list(rows)
        beyond[i] = dataclasses.replace(rows[i], **{name: moved})
        assert compare_grids(rows, beyond, floors) == [(i, name, value, moved, floor)]

    @pytest.mark.parametrize(
        "name, change", [("excluded_trials", lambda v: v + 1), ("sufficient_condition", lambda v: not v), ("clamped", lambda v: not v)]
    )
    def test_rejects_a_changed_int_or_bool(self, grid, name, change):
        rows, floors = grid
        changed = list(rows)
        changed[0] = dataclasses.replace(rows[0], **{name: change(getattr(rows[0], name))})
        assert [cell[:2] for cell in compare_grids(rows, changed, floors)] == [(0, name)]

    def test_rejects_a_missing_row(self, grid):
        rows, floors = grid
        assert compare_grids(rows, rows[:-1], floors)


def test_certificate_floors_cover_their_fields():
    args = (inverted_pendulum(), pendulum_cost_bounds(), DisturbanceModel(25.0 * np.eye(4)), (20, 30), 3, 2, 0)
    report = report_values(scaling_certificate(*args))
    floors = certificate_floors(*args, poles=None)
    floats = {name for name, value in report.items() if isinstance(value, float)}
    assert set(floors) == floats
    assert all(np.isfinite(f) and f > 0.0 for f in floors.values())
    assert compare_grids([report], [report], [floors]) == []
