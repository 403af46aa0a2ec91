"""The benchmark's per-layer tracer must find every function it wraps.

A target the tracer cannot find reads 0 in its per-layer metrics, so a
rename or deletion in the package would silently empty a layer.
"""

import os
import sys

import preview_lqr.policies
import preview_lqr.riccati

_BENCHMARKS = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

from tracing import Tracer  # noqa: E402


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
