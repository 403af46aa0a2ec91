"""Benchmark grids over horizon and preview length, with CSV and SVG output.

Each trial draws one realization per horizon from seed-derived substreams
(a schedule, plus a system and disturbances depending on scenario), sweeps
it across the preview axis, and runs the tracking policy and the
receding-horizon baseline on it as a pair. Cells aggregate the paired
regret gap, the regret bound, and its margin over trials. Output is
deterministic given the configuration and master seed, at any worker
count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import (
    DegenerateConstantsError,
    compute_bound_constants,
    regret_upper_bound,
    sufficient_condition_check,
)
from .costs import CostBounds, random_uniform_schedule
from .policies import DEFAULT_POLES, FrozenPlanner
from .regret import NUMERICAL_ERRORS, paired_regrets, standard_error
from .riccati import DareConvergenceError, solve_dare
from .seeding import generator
from .systems import (
    DisturbanceModel,
    GenerationBudgetError,
    inverted_pendulum,
    place_poles_single_input,
    random_controllable_system,
)

SCENARIOS = ("pendulum", "random", "pendulum-disturbance", "random-disturbance")

# Every scenario builds a 4-state, single-input system.
N_STATES = 4

DEFAULT_X0 = (1.0,) * N_STATES


def pendulum_cost_bounds() -> CostBounds:
    """The benchmark's a priori cost bounds for 4-state single-input runs."""
    return CostBounds(
        Q_min=8e3 * np.eye(4),
        Q_max=3.2e4 * np.eye(4),
        R_min=np.array([[2e3]]),
        R_max=np.array([[9.8e4]]),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid configuration: scenario, ranges, trial count, seed, instance data."""

    scenario: str = "pendulum"
    t_min: int = 20
    t_max: int = 200
    t_step: int = 20
    w_min: int = 0
    w_max: int = 10
    trials: int = 20
    master_seed: int = 0
    bounds: CostBounds = field(default_factory=pendulum_cost_bounds)
    poles: tuple = DEFAULT_POLES
    disturbance_cov_scale: float = 25.0
    x0: tuple = DEFAULT_X0
    output_dir: str = "results"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.t_min < 2 or self.t_max < self.t_min or self.t_step < 1:
            raise ValueError("need 2 <= t_min <= t_max and t_step >= 1")
        if self.w_min < 0 or self.w_max < self.w_min:
            raise ValueError("need 0 <= w_min <= w_max")
        object.__setattr__(self, "poles", tuple(float(p) for p in self.poles))
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if len(self.x0) != N_STATES:
            raise ValueError(f"x0 must have length {N_STATES}, got {len(self.x0)}")
        if len(self.poles) != N_STATES:
            raise ValueError(f"poles must have length {N_STATES}, got {len(self.poles)}")
        if not all(abs(p) < 1.0 for p in self.poles):
            raise ValueError(f"poles must lie inside the unit circle, got {self.poles}")
        b = self.bounds
        shapes = (b.Q_min.shape, b.Q_max.shape, b.R_min.shape, b.R_max.shape)
        if shapes != ((N_STATES, N_STATES),) * 2 + ((1, 1),) * 2:
            raise ValueError(
                f"bounds must have {N_STATES}x{N_STATES} Q and 1x1 R matrices, "
                f"got Q_min, Q_max, R_min, R_max shapes {shapes}"
            )

    @property
    def noisy(self) -> bool:
        return self.scenario.endswith("disturbance")

    @property
    def t_values(self) -> tuple:
        return tuple(range(self.t_min, self.t_max + 1, self.t_step))

    @property
    def w_values(self) -> tuple:
        return tuple(range(self.w_min, self.w_max + 1))


@dataclass(frozen=True)
class GridRow:
    """Aggregates for one (T, W) cell."""

    T: int
    W: int
    phi_mean: float
    phi_stderr: float
    regret_ours_mean: float
    regret_mpc_mean: float
    bound: float
    margin_min: float
    sufficient_condition: bool
    excluded_trials: int
    clamped: bool


@dataclass(frozen=True)
class GridResult:
    """All cell rows plus cells that failed outright, with reasons."""

    rows: tuple
    failures: tuple = ()


# The CSV columns are GridRow's fields in order. Their annotations read
# "int", "float" or "bool" here, since annotations are not evaluated.
_COLUMNS = tuple((f.name, f.type) for f in fields(GridRow))

CSV_HEADER = ",".join(name for name, _ in _COLUMNS)

# The numerical failures that exclude a trial: those of its runs, plus those
# met only in its setup and its bound. Any other error raises.
_TRIAL_ERRORS = NUMERICAL_ERRORS + (GenerationBudgetError, DegenerateConstantsError, DareConvergenceError)


def _trial_system(config: ExperimentConfig, T: int, trial: int):
    x0 = np.asarray(config.x0, dtype=float)
    if config.scenario.startswith("pendulum"):
        sys_ = inverted_pendulum(x0)
    else:
        rng = generator(config.master_seed, config.scenario, T, trial, "system")
        sys_ = random_controllable_system(N_STATES, 1, 0.0, 10.0, rng, x0=x0)
    K_track = place_poles_single_input(sys_, config.poles)
    return sys_, K_track


def _evaluate_trial(config: ExperimentConfig, T: int, trial: int):
    """One realization, swept over every requested preview length.

    One trial draws one (system, schedule, disturbance) realization and
    runs both policies on it for every W in one ``paired_regrets`` batch,
    mirroring how the benchmark surface is swept along the preview axis.
    Returns {W: outcome} where an outcome is (regret_ours, regret_baseline,
    bound, sufficient_condition) or an error string.
    """
    Ws = list(dict.fromkeys(min(W, T - 2) for W in config.w_values))
    try:
        sys_, K_track = _trial_system(config, T, trial)
        P_max = solve_dare(sys_.A, sys_.B, config.bounds.Q_max, config.bounds.R_max)
        stream = (config.master_seed, config.scenario, T, trial)
        schedule = random_uniform_schedule(config.bounds, T, generator(*stream, "schedule"))
        w = None
        if config.noisy:
            dist = DisturbanceModel(config.disturbance_cov_scale * np.eye(sys_.n))
            w = dist.sample(generator(*stream, "disturbance"), T - 1)
        # The sweep streams the noisy plans of every W; an overflowing sweep
        # fails the trial once.
        planner = FrozenPlanner(sys_, schedule, w, Ws)
        planner.prepare()
    except _TRIAL_ERRORS as err:
        reason = f"{type(err).__name__}: {err}"
        return {W: reason for W in config.w_values}
    pairs = paired_regrets(planner, K_track, Ws, P_max)
    # The bound constants of every W whose pair succeeded, in one call.
    ok = [W for W, pair in zip(Ws, pairs) if not isinstance(pair, Exception)]
    try:
        constants = dict(zip(ok, compute_bound_constants(planner, K_track, ok) if ok else ()))
    except _TRIAL_ERRORS as err:
        constants = dict.fromkeys(ok, err)
    computed = {}
    for W_eff, pair in zip(Ws, pairs):
        try:
            c = pair if isinstance(pair, Exception) else constants[W_eff]
            if isinstance(c, Exception):
                raise c
            bound = regret_upper_bound(c, T, W_eff, sys_.x0)
            suff = sufficient_condition_check(c, config.bounds, sys_)
            computed[W_eff] = (*pair, bound, suff)
        except _TRIAL_ERRORS as err:
            computed[W_eff] = f"{type(err).__name__}: {err}"
    return {W: computed[min(W, T - 2)] for W in config.w_values}


def _aggregate_cell(T: int, W: int, trial_outcomes):
    cells = [outcome[W] for outcome in trial_outcomes]
    ok = [cell for cell in cells if not isinstance(cell, str)]
    if not ok:
        return None, (T, W, cells[0])
    reg_ours, reg_base, bounds, suffs = zip(*ok)
    margins = [bound - reg for bound, reg in zip(bounds, reg_ours)]
    # The trial of least margin supplies bound and sufficient_condition;
    # the first one wins ties.
    best = min(range(len(margins)), key=margins.__getitem__)
    phis = np.asarray(reg_base) - np.asarray(reg_ours)
    row = GridRow(
        T=T,
        W=W,
        phi_mean=float(phis.mean()),
        phi_stderr=standard_error(phis),
        regret_ours_mean=float(np.mean(reg_ours)),
        regret_mpc_mean=float(np.mean(reg_base)),
        bound=float(bounds[best]),
        margin_min=float(margins[best]),
        sufficient_condition=bool(suffs[best]),
        excluded_trials=len(cells) - len(ok),
        clamped=W > T - 2,
    )
    return row, None


def run_grid(config: ExperimentConfig, workers: int = 1) -> GridResult:
    """Evaluate every (T, W) cell of the configured grid.

    Each trial draws one realization per horizon and sweeps it across the
    preview axis, with both policies paired on identical draws. Cells whose
    requested W exceeds T - 2 are computed at the clamped value and
    flagged. Per-trial numerical failures are excluded from the aggregates
    and counted; a cell where every trial fails becomes a failure record
    instead of a row. Results are independent of ``workers`` >= 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    Ts = [T for T in config.t_values for _ in range(config.trials)]
    trials = [trial for _ in config.t_values for trial in range(config.trials)]
    configs = [config] * len(Ts)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = list(pool.map(_evaluate_trial, configs, Ts, trials, chunksize=1))
    else:
        flat = list(map(_evaluate_trial, configs, Ts, trials))
    rows, failures = [], []
    for t_index, T in enumerate(config.t_values):
        trial_outcomes = flat[t_index * config.trials : (t_index + 1) * config.trials]
        for W in config.w_values:
            row, failure = _aggregate_cell(T, W, trial_outcomes)
            if row is not None:
                rows.append(row)
            if failure is not None:
                failures.append(failure)
    return GridResult(rows=tuple(rows), failures=tuple(failures))


def _csv_cell(value, kind: str) -> str:
    return format(float(value), ".17g") if kind == "float" else str(int(value))


_PARSE_CELL = {"int": int, "float": float, "bool": lambda text: bool(int(text))}


def emit_csv(result: GridResult, path) -> None:
    """Write the grid as CSV, one row per cell, sorted by (T, W).

    Floats are printed with 17 significant digits so parsing reproduces
    them exactly; bools print as 0 or 1.
    """
    rows = sorted(result.rows, key=lambda r: (r.T, r.W))
    lines = [",".join(_csv_cell(getattr(r, n), kind) for n, kind in _COLUMNS) for r in rows]
    _write_text(path, "\n".join([CSV_HEADER, *lines]) + "\n", "CSV")


def _write_text(path, text: str, kind: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as err:
        raise OSError(f"cannot write {kind} to {path}: {err}") from err


def parse_csv(path) -> GridResult:
    """Read a grid CSV produced by emit_csv back into a GridResult."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unrecognized CSV header in {path}")
    rows = []
    for line in lines[1:]:
        cells = zip(line.split(","), _COLUMNS)
        rows.append(GridRow(*(_PARSE_CELL[kind](text) for text, (_, kind) in cells)))
    return GridResult(rows=tuple(rows))


_METRICS = tuple(name for name, kind in _COLUMNS if kind == "float")


def _diverging_color(value: float, scale: float) -> str:
    # White at zero, red for positive, blue for negative.
    if scale <= 0.0:
        t = 0.0
    else:
        t = max(-1.0, min(1.0, value / scale))
    if t >= 0.0:
        r, g, b = 255, round(255 * (1 - t)), round(255 * (1 - t))
    else:
        r, g, b = round(255 * (1 + t)), round(255 * (1 + t)), 255
    return f"#{r:02x}{g:02x}{b:02x}"


def emit_heatmap_svg(result: GridResult, metric: str = "phi_mean", path=None) -> str:
    """Render one metric of the grid as a standalone SVG heatmap.

    One rectangle per (T, W) cell on a diverging color scale centered at
    zero, with axis labels and a legend. Output bytes are a deterministic
    function of the input. Returns the SVG text; writes it when ``path``
    is given.
    """
    if not result.rows:
        raise ValueError("cannot render an empty grid")
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {_METRICS}")
    rows = sorted(result.rows, key=lambda r: (r.T, r.W))
    Ts = sorted({r.T for r in rows})
    Ws = sorted({r.W for r in rows})
    values = {(r.T, r.W): getattr(r, metric) for r in rows}
    scale = max((abs(v) for v in values.values()), default=0.0)

    cell_w, cell_h = 44, 26
    left, top, bottom, right = 70, 40, 56, 120
    width = left + cell_w * len(Ts) + right
    height = top + cell_h * len(Ws) + bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{left}" y="24" font-family="monospace" font-size="14">'
        f"{metric} over (T, W)</text>",
    ]
    for j, W in enumerate(Ws):
        # Larger W drawn higher up.
        y = top + (len(Ws) - 1 - j) * cell_h
        for i, T in enumerate(Ts):
            if (T, W) not in values:
                continue
            x = left + i * cell_w
            color = _diverging_color(values[(T, W)], scale)
            parts.append(
                f'<rect class="cell" x="{x}" y="{y}" width="{cell_w}" '
                f'height="{cell_h}" fill="{color}" stroke="#cccccc"/>'
            )
    for i, T in enumerate(Ts):
        x = left + i * cell_w + cell_w // 2
        y = top + cell_h * len(Ws) + 16
        parts.append(
            f'<text x="{x}" y="{y}" font-family="monospace" font-size="11" '
            f'text-anchor="middle">{T}</text>'
        )
    for j, W in enumerate(Ws):
        y = top + (len(Ws) - 1 - j) * cell_h + cell_h // 2 + 4
        parts.append(
            f'<text x="{left - 10}" y="{y}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{W}</text>'
        )
    parts.append(
        f'<text x="{left + cell_w * len(Ts) // 2}" y="{height - 16}" '
        f'font-family="monospace" font-size="12" text-anchor="middle">T</text>'
    )
    parts.append(
        f'<text x="18" y="{top + cell_h * len(Ws) // 2}" '
        f'font-family="monospace" font-size="12">W</text>'
    )
    # Legend: vertical gradient from +scale (top) to -scale (bottom).
    legend_x = left + cell_w * len(Ts) + 30
    legend_h = max(cell_h * len(Ws), 60)
    steps = 24
    step_h = legend_h / steps
    for s in range(steps):
        frac = 1.0 - 2.0 * (s + 0.5) / steps
        color = _diverging_color(frac, 1.0) if scale == 0.0 else _diverging_color(frac * scale, scale)
        y = top + s * step_h
        parts.append(
            f'<rect class="legend" x="{legend_x}" y="{y:.2f}" width="16" '
            f'height="{step_h:.2f}" fill="{color}"/>'
        )
    for frac, label_y in ((1.0, top + 4), (0.0, top + legend_h / 2 + 4), (-1.0, top + legend_h + 4)):
        parts.append(
            f'<text x="{legend_x + 22}" y="{label_y:.2f}" font-family="monospace" '
            f'font-size="10">{format(frac * scale, ".3g")}</text>'
        )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        _write_text(path, text, "SVG")
    return text
