"""Tests of the benchmark's own machinery: reference checks and tracer.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks``.
"""

import os
import sys
import tracemalloc
import types

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (os.path.join(_HERE, os.pardir, "src"), _HERE):
    _path = os.path.abspath(_path)
    if _path not in sys.path:
        sys.path.insert(0, _path)

import reference  # noqa: E402
import tracing  # noqa: E402
from tracing import Layer, Tracer  # noqa: E402

SEED = 7


def test_reference_checks_pass_on_the_program():
    assert reference.check_program(SEED) == []


def test_reference_check_rejects_perturbed_cost(monkeypatch):
    original = reference.pl.clairvoyant_policy

    def perturbed(*args, **kwargs):
        traj = original(*args, **kwargs)
        return type(traj)(traj.x, traj.u, traj.cost * (1.0 + 1e-6))

    monkeypatch.setattr(reference.pl, "clairvoyant_policy", perturbed)
    problems = reference.check_program(SEED)
    assert any(p.startswith("clairvoyant cost vs x0'P0x0") for p in problems)
    assert any(p.startswith("clairvoyant cost vs least squares") for p in problems)


def test_reference_check_rejects_perturbed_baseline(monkeypatch):
    original = reference.pl.mpc_baseline_policy

    def perturbed(*args, **kwargs):
        traj = original(*args, **kwargs)
        return type(traj)(traj.x, traj.u * (1.0 + 1e-6), traj.cost)

    monkeypatch.setattr(reference.pl, "mpc_baseline_policy", perturbed)
    problems = reference.check_program(SEED)
    assert any(p.startswith("baseline controls") for p in problems)


def _fake_package(monkeypatch):
    """fakepkg.a defines inner; fakepkg.b imports it by name, as the program does."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    for name, module in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, module)
    exec(
        "def inner(size=0):\n"
        "    return bytearray(size)\n"
        "class Box:\n"
        "    def get(self):\n"
        "        return 1\n",
        a.__dict__,
    )
    exec(
        "from fakepkg.a import inner\n"
        "def outer(size=0):\n"
        "    inner(size)\n"
        "    return inner()\n",
        b.__dict__,
    )
    return a, b


FAKE_LAYERS = (
    Layer("b.outer", ("fakepkg.b:outer",), self_suffix="_self_ms"),
    Layer("a.inner", ("fakepkg.a:inner",), calls=True, peak=True),
)


def test_nested_spans_give_expected_self_times(monkeypatch):
    a, b = _fake_package(monkeypatch)
    ticks = iter(range(100))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = Tracer(FAKE_LAYERS, package="fakepkg")
    tracer.install()
    assert tracer.absent == []
    # inner is replaced both where it is defined and where it was imported.
    assert b.inner is a.inner and hasattr(a.inner, "__wrapped__")
    tracer.begin_op(0)  # op starts at 0
    b.outer()  # outer 1..6, inner 2..3 and 4..5
    tracer.end_op()  # op ends at 7
    assert tracer.self_times() == [2.0, 3.0, 1.0, 1.0]
    metrics = tracer.layer_metrics(ops=1)
    assert metrics["b.outer_self_ms"] == 3000.0
    assert metrics["a.inner_ms"] == 2000.0
    assert metrics["a.inner_calls"] == 2
    # Per-op averages and speed scaling.
    assert tracer.layer_metrics(ops=2, scale_by_op={0: 2.0})["a.inner_ms"] == 500.0
    tracer.uninstall()
    assert not hasattr(b.inner, "__wrapped__") and not hasattr(a.inner, "__wrapped__")


def test_calls_outside_an_op_are_not_recorded(monkeypatch):
    _, b = _fake_package(monkeypatch)
    tracer = Tracer(FAKE_LAYERS, package="fakepkg")
    tracer.install()
    b.outer()
    assert tracer.spans == []
    tracer.uninstall()


def test_missing_names_are_reported_absent(monkeypatch):
    _fake_package(monkeypatch)
    layers = FAKE_LAYERS + (
        Layer(
            "gone",
            ("fakepkg.a:deleted_function", "fakepkg.a:Box.deleted_method", "fakepkg.nomodule:f"),
            calls=True,
        ),
    )
    tracer = Tracer(layers, package="fakepkg")
    tracer.install()
    assert tracer.absent == [
        "fakepkg.a:deleted_function",
        "fakepkg.a:Box.deleted_method",
        "fakepkg.nomodule:f",
    ]
    tracer.begin_op(0)
    sys.modules["fakepkg.b"].outer()
    tracer.end_op()
    metrics = tracer.layer_metrics(ops=1)
    assert metrics["gone_ms"] == 0.0 and metrics["gone_calls"] == 0.0
    assert set(metrics) == set(tracing.metric_units(layers))
    tracer.uninstall()


def test_peaks_only_while_memory_is_on(monkeypatch):
    _, b = _fake_package(monkeypatch)
    tracer = Tracer(FAKE_LAYERS, package="fakepkg")
    tracer.install()
    b.outer(8 * 2**20)
    assert tracer.peaks == {} and not tracemalloc.is_tracing()
    tracer.memory = True
    b.outer(8 * 2**20)
    tracer.memory = False
    assert not tracemalloc.is_tracing()
    assert tracer.layer_metrics(ops=1)["a.inner_peak_mb"] == pytest.approx(8.0, rel=0.01)
    tracer.uninstall()
