"""Per-layer tracing of preview-lqr from outside the library.

The tracer wraps the public functions of each module and records one span
per call: layer, function, start, end, parent span and operation id. The
program imports these functions with ``from .x import y``, so a wrapper
replaces the name in every module namespace that holds it, and methods
are replaced on their class. A name that no longer exists is reported as
absent. Spans stay in memory until the run writes them out; a span's self
time is its duration minus the durations of its direct children.

While ``memory`` is on, layers marked with a peak also record the
tracemalloc peak of new allocations inside each call. tracemalloc runs
only inside those calls, and only when asked for.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass

PACKAGE = "preview_lqr"


@dataclass(frozen=True)
class Layer:
    """A group of public functions reported under one metric prefix.

    ``targets`` are "module:qualname" strings. ``time_metric`` names the
    self-time metric; the flags add a call count, a sum of returned sweep
    passes, and a tracemalloc peak.
    """

    name: str
    targets: tuple
    calls: bool = False
    passes: bool = False
    peak: bool = False
    self_suffix: str = "_ms"

    @property
    def time_metric(self) -> str:
        return self.name + self.self_suffix


LAYERS = (
    Layer("bounds.constants", ("preview_lqr.bounds:compute_bound_constants",), calls=True, peak=True),
    Layer(
        "bounds.evaluate",
        ("preview_lqr.bounds:regret_upper_bound", "preview_lqr.bounds:sufficient_condition_check"),
    ),
    Layer("bounds.certificate", ("preview_lqr.bounds:scaling_certificate",), self_suffix="_self_ms"),
    Layer("policies.mpc", ("preview_lqr.policies:mpc_baseline_policy",), calls=True),
    Layer("policies.plan", ("preview_lqr.policies:FrozenPlanner.plan",), calls=True),
    Layer("policies.prepare", ("preview_lqr.policies:FrozenPlanner.prepare",), peak=True),
    Layer("policies.tracking", ("preview_lqr.policies:prediction_tracking_policy",)),
    Layer("policies.clairvoyant", ("preview_lqr.policies:clairvoyant_policy",)),
    Layer("riccati.affine", ("preview_lqr.riccati:affine_terms",), calls=True),
    Layer("riccati.sweep", ("preview_lqr.riccati:frozen_backward_sweep",), passes=True),
    Layer("riccati.backward", ("preview_lqr.riccati:backward_riccati",), calls=True),
    Layer("riccati.rollout", ("preview_lqr.riccati:rollout",)),
    Layer("riccati.oracle", ("preview_lqr.riccati:brute_force_lqr_oracle",)),
    Layer("riccati.dare", ("preview_lqr.riccati:solve_dare",), calls=True),
    Layer("riccati.cost", ("preview_lqr.riccati:schedule_cost",)),
    Layer("regret.deviation", ("preview_lqr.regret:regret_via_control_deviation",)),
    Layer("regret.mc", ("preview_lqr.regret:expected_regret_mc",)),
    Layer("costs.schedule", ("preview_lqr.costs:random_uniform_schedule",)),
    Layer("costs.extrema", ("preview_lqr.costs:sequence_extrema",)),
    Layer(
        "systems.design",
        (
            "preview_lqr.systems:inverted_pendulum",
            "preview_lqr.systems:place_poles_single_input",
            "preview_lqr.systems:random_controllable_system",
        ),
    ),
    Layer("experiments.grid", ("preview_lqr.experiments:run_grid",), self_suffix="_self_ms"),
    Layer("verification.suites", ("preview_lqr.verification:run_all",), self_suffix="_self_ms"),
)


def metric_units(layers=LAYERS) -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in layers:
        units[layer.time_metric] = "ms"
        if layer.calls:
            units[layer.name + "_calls"] = "count"
        if layer.passes:
            units[layer.name + "_passes"] = "count"
        if layer.peak:
            units[layer.name + "_peak_mb"] = "MB"
    return units


def _sweep_passes(result) -> int:
    # frozen_backward_sweep returns (freeze indices, P_all, K_all).
    return int(len(result[0]))


class _PeakStack:
    """Tracemalloc peaks of nested calls, each relative to its own entry."""

    def __init__(self):
        self._frames = []  # [traced bytes at entry, peak seen so far]

    def enter(self):
        if not self._frames:
            tracemalloc.start()
        else:
            current, peak = tracemalloc.get_traced_memory()
            self._frames[-1][1] = max(self._frames[-1][1], peak)
            tracemalloc.reset_peak()
        current, _ = tracemalloc.get_traced_memory()
        self._frames.append([current, current])

    def leave(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._frames.pop()
        peak = max(seen, peak)
        if self._frames:
            self._frames[-1][1] = max(self._frames[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - base


class Tracer:
    """Wraps the layers' functions and records spans while an op is open."""

    def __init__(self, layers=LAYERS, package: str = PACKAGE):
        self.layers = layers
        self.package = package
        self.spans = []  # [layer, function, start, end, parent, op, passes]
        self.peaks = {}  # layer name -> largest per-call peak in bytes
        self.absent = []
        self.memory = False
        self._op = None
        self._stack = []
        self._peak_stack = _PeakStack()
        self._undo = []

    # -- installation -------------------------------------------------

    def install(self):
        """Replace every target everywhere it is bound; record absentees."""
        for layer in self.layers:
            for target in layer.targets:
                module_name, _, qualname = target.partition(":")
                original, owner = self._resolve(module_name, qualname)
                if original is None:
                    self.absent.append(target)
                    continue
                wrapper = self._wrap(layer, qualname, original)
                if "." in qualname:
                    attr = qualname.rsplit(".", 1)[1]
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
                    continue
                for namespace in self._namespaces():
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._undo.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _resolve(self, module_name: str, qualname: str):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return None, None
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        # Read the owner's own dict, so an inherited method counts as absent.
        original = vars(owner).get(parts[-1])
        if not callable(original):
            return None, None
        return original, owner

    def _namespaces(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, layer: Layer, qualname: str, fn):
        tracer = self
        count_passes = layer.passes
        track_peak = layer.peak

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recording = tracer._op is not None
            measuring = track_peak and tracer.memory
            if not (recording or measuring):
                return fn(*args, **kwargs)
            if measuring:
                tracer._peak_stack.enter()
            if recording:
                span = [layer.name, qualname, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._op, 0]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(span)
                span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if recording:
                    span[3] = time.perf_counter()
                    tracer._stack.pop()
                if measuring:
                    peak = tracer._peak_stack.leave()
                    tracer.peaks[layer.name] = max(tracer.peaks.get(layer.name, 0), peak)
            if recording and count_passes:
                span[6] = _sweep_passes(result)
            return result

        return wrapper

    # -- operations ---------------------------------------------------

    def begin_op(self, op_id: int):
        """Open an op; its root span parents every layer span inside it."""
        self._op = op_id
        self._stack = [len(self.spans)]
        self.spans.append(["op", "op", time.perf_counter(), 0.0, -1, op_id, 0])

    def end_op(self):
        self.spans[self._stack[0]][3] = time.perf_counter()
        self._op = None
        self._stack = []

    # -- reports ------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, in seconds."""
        child = [0.0] * len(self.spans)
        for layer, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - child[i] for i, s in enumerate(self.spans)]

    def layer_metrics(self, ops: int, scale_by_op=None) -> dict:
        """Per-op averages for every layer metric, zero where never called.

        ``scale_by_op`` maps an op id to the factor its times are divided
        by (the machine slowdown measured around that op).
        """
        scale_by_op = scale_by_op or {}
        totals = {layer.name: [0.0, 0, 0] for layer in self.layers}
        for span, self_time in zip(self.spans, self.self_times()):
            acc = totals.get(span[0])
            if acc is None:
                continue
            acc[0] += self_time / scale_by_op.get(span[5], 1.0)
            acc[1] += 1
            acc[2] += span[6]
        ops = max(ops, 1)
        out = {}
        for layer in self.layers:
            seconds, calls, passes = totals[layer.name]
            out[layer.time_metric] = 1e3 * seconds / ops
            if layer.calls:
                out[layer.name + "_calls"] = calls / ops
            if layer.passes:
                out[layer.name + "_passes"] = passes / ops
            if layer.peak:
                out[layer.name + "_peak_mb"] = self.peaks.get(layer.name, 0) / 2**20
        return out

    def dump(self, path):
        """Write spans, absent names and peaks as JSON."""
        fields = ("layer", "function", "start", "end", "parent", "op", "passes")
        payload = {
            "fields": fields,
            "spans": self.spans,
            "absent": self.absent,
            "peak_bytes": self.peaks,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
