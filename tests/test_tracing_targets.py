"""The benchmark's per-layer tracer must find every function it wraps.

A target the tracer cannot find reads 0 in its per-layer metrics, so a
rename or deletion in the package would silently empty a layer.
"""

import os
import sys

import numpy as np

import preview_lqr.policies
import preview_lqr.riccati
from preview_lqr.costs import random_uniform_schedule
from preview_lqr.experiments import pendulum_cost_bounds
from preview_lqr.systems import inverted_pendulum

_BENCHMARKS = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

from tracing import Tracer, _sweep_passes  # noqa: E402


def test_every_traced_target_is_in_the_package():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
        assert hasattr(preview_lqr.policies.backward_riccati, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(preview_lqr.riccati.backward_riccati, "__wrapped__")
    assert not hasattr(preview_lqr.policies.FrozenPlanner.plan, "__wrapped__")


def test_sweep_passes_counts_every_freeze_index():
    # riccati.sweep_passes must count the T passes one sweep returns.
    schedule = random_uniform_schedule(pendulum_cost_bounds(), 7, np.random.default_rng(0))
    result = preview_lqr.riccati.frozen_backward_sweep(inverted_pendulum(), schedule)
    assert _sweep_passes(result) == 7
