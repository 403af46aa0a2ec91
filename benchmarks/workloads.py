"""The four workloads: inputs from a seed, the op, and its output checks.

One op is one call into a public entry point of preview-lqr. A run cycles
through a round of distinct ops whose master seeds derive from the
workload seed, so every run of a workload with the same seed does the
same work per round, and successive ops are distinct instances.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from preview_lqr import bounds, experiments, systems, verification
from reference import derive_seed

# Criterion 06: realized regret stays below the bound, up to round-off.
MARGIN_RTOL = 1e-6
# Regrets are nonnegative up to round-off relative to the bound's scale.
REGRET_RTOL = 1e-9
# Criterion 10: the certificate's max/min rate ratio.
RATIO_LIMIT = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    round_ops: int
    make_input: Callable  # op master seed -> op input
    op: Callable  # op input -> program output
    check: Callable  # (op input, output) -> list of problems
    csv: bool = False  # grid output: hash its CSV

    def inputs(self, seed: int):
        """The round's op inputs and a separate warm-up input."""
        rounds = [self.make_input(derive_seed(seed, self.name, i)) for i in range(self.round_ops)]
        return rounds, self.make_input(derive_seed(seed, self.name, "warm-up"))


# -- grids ----------------------------------------------------------------


def _grid_config(T: int, w_min: int, w_max: int):
    def make(master_seed: int):
        return experiments.ExperimentConfig(
            scenario="pendulum",
            t_min=T,
            t_max=T,
            t_step=1,
            w_min=w_min,
            w_max=w_max,
            trials=1,
            master_seed=master_seed,
        )

    return make


def _run_grid(config):
    return experiments.run_grid(config, workers=1)


def check_grid(config, result) -> list:
    """No failed cells, no excluded trials, regrets >= 0, bound dominance."""
    problems = []
    if result.failures:
        problems.append(f"failed cells: {result.failures}")
    expected = [(T, W) for T in config.t_values for W in config.w_values]
    got = sorted((r.T, r.W) for r in result.rows)
    if got != expected:
        problems.append(f"cells {got} != expected {expected}")
    for r in result.rows:
        where = f"T={r.T} W={r.W}"
        values = (r.phi_mean, r.regret_ours_mean, r.regret_mpc_mean, r.bound, r.margin_min)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{where}: non-finite value in {values}")
            continue
        tol = REGRET_RTOL * max(1.0, abs(r.bound))
        if r.regret_ours_mean < -tol or r.regret_mpc_mean < -tol:
            problems.append(f"{where}: negative regret {r.regret_ours_mean}, {r.regret_mpc_mean}")
        if r.margin_min < -MARGIN_RTOL * r.bound:
            problems.append(f"{where}: regret above bound, margin {r.margin_min}, bound {r.bound}")
        if r.excluded_trials:
            problems.append(f"{where}: {r.excluded_trials} excluded trials")
    return problems


# -- scaling certificate --------------------------------------------------

CERT_TS = (50, 100)
CERT_W = 8
CERT_TRIALS = 4


def _certificate_input(master_seed: int):
    return {
        "sys": systems.inverted_pendulum(),
        "schedule_spec": experiments.pendulum_cost_bounds(),
        "dist": systems.DisturbanceModel(25.0 * np.eye(4)),
        "Ts": CERT_TS,
        "W": CERT_W,
        "trials": CERT_TRIALS,
        "master_seed": master_seed,
    }


def _run_certificate(kwargs):
    return bounds.scaling_certificate(**kwargs)


def check_certificate(kwargs, rep) -> list:
    problems = []
    if not (rep.certified and math.isfinite(rep.ratio) and rep.ratio <= RATIO_LIMIT):
        problems.append(f"certificate does not hold: ratio {rep.ratio}, certified {rep.certified}")
    if rep.Ts != CERT_TS or rep.trials != CERT_TRIALS:
        problems.append(f"certificate covers Ts={rep.Ts}, trials={rep.trials}")
    if any(rep.excluded):
        problems.append(f"excluded trials {rep.excluded}")
    if not all(0.0 < g < 1.0 for g in rep.gammas):
        problems.append(f"gamma outside (0, 1): {rep.gammas}")
    if not all(math.isfinite(r) and r > 0.0 for r in rep.rates):
        problems.append(f"rates not finite and positive: {rep.rates}")
    return problems


# -- verification suites -------------------------------------------------


def _run_suites(master_seed: int):
    return verification.run_all(master_seed)


def check_suites(master_seed, results) -> list:
    problems = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    if len(results) != 9:
        problems.append(f"expected 9 suites, got {len(results)}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pendulum-sweep", 4, _grid_config(200, 3, 10), _run_grid, check_grid, csv=True),
        Workload("noisy-certificate", 2, _certificate_input, _run_certificate, check_certificate),
        Workload("long-horizon", 2, _grid_config(1000, 8, 8), _run_grid, check_grid, csv=True),
        Workload("verify-suites", 16, lambda seed: seed % 2**32, _run_suites, check_suites),
    )
}


def csv_digest(result, path) -> str:
    """SHA-256 of the grid's CSV as ``emit_csv`` writes it."""
    experiments.emit_csv(result, path)
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()
