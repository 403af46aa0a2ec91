"""Benchmark for preview-lqr: one workload per process, one client, closed loop.

Run from the repository root:

    python3 benchmarks/run.py --workload pendulum-sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload pendulum-sweep --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --selfcheck --seed 1 --seconds 20

The first form times ops and prints the end-to-end metrics; ``--trace 1``
wraps the library's public functions and prints per-layer metrics instead;
``--selfcheck`` runs every workload ``SELFCHECK_REPS`` times, alternating
between them, each in a fresh process, and prints the median and quartiles
of each end-to-end metric. The last line of a run is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("pendulum-sweep", "noisy-certificate", "long-horizon", "verify-suites")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
# setup_s is the median of this many fresh set-up processes per run.
SETUP_PROBES = 7
# Runs per workload in --selfcheck; run r uses seed --seed + r.
SELFCHECK_REPS = 10


def _prepare_imports():
    """Pin BLAS and OpenMP to one thread, then make the program importable."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "preview_lqr" / "__init__.py").is_file():
        sys.exit(f"error: no preview_lqr package under {SRC}; run from a full checkout")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _probe_setup(args) -> float:
    """Start a fresh process that only sets up; seconds until it is ready."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        stdout=subprocess.PIPE,
        cwd=str(ROOT),
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed: {line!r}")
    return elapsed


def setup_probe(args) -> int:
    _prepare_imports()
    from workloads import WORKLOADS

    WORKLOADS[args.workload].inputs(args.seed)
    print("ready", flush=True)
    return 0


def run_workload(args) -> int:
    _prepare_imports()
    import preview_lqr  # noqa: F401  (setup covers the program's import)
    import reference
    from speed import Speedometer
    from workloads import WORKLOADS, csv_digest

    workload = WORKLOADS[args.workload]
    round_inputs, warm_input = workload.inputs(args.seed)
    setup_here = time.perf_counter() - _START

    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{workload.name}-{args.seed}.csv"
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        for name in tracer.absent:
            print(f"absent: {name} is not in the program; its metrics read 0", flush=True)

    correct = True
    # The warm-up op is untimed; in the traced run it also measures the
    # tracemalloc peaks, so no timed op pays for tracemalloc.
    if tracer is not None:
        tracer.memory = True
    try:
        warm_problems = workload.check(warm_input, workload.op(warm_input))
    except Exception:  # noqa: BLE001 - the run reports it and goes on
        warm_problems = [traceback.format_exc(limit=3)]
    if tracer is not None:
        tracer.memory = False
    for problem in warm_problems:
        correct = False
        print(f"warm-up op failed: {problem}", flush=True)

    speed = Speedometer()
    attempted = failed = rounds = 0
    wall_total = 0.0
    scaled_ok = []  # reference-speed seconds of ops that passed their checks
    scaled_all = 0.0
    factors = {}
    while True:
        for op_input in round_inputs:
            op_id = attempted
            if tracer is not None:
                tracer.begin_op(op_id)
            start = time.perf_counter()
            try:
                result = workload.op(op_input)
                error = None
            except Exception:  # noqa: BLE001 - a raising op counts as failed
                result, error = None, traceback.format_exc(limit=3)
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            factor = speed.mark()
            factors[op_id] = factor
            attempted += 1
            wall_total += wall
            scaled_all += wall / factor
            problems = [error] if error else workload.check(op_input, result)
            if problems:
                failed += 1
                for problem in problems:
                    print(f"op {op_id} failed: {problem}", flush=True)
                continue
            scaled_ok.append(wall / factor)
            digest = csv_digest(result, csv_path) if workload.csv else ""
            print(
                f"op {op_id} wall_ms {1e3 * wall:.1f} speed_factor {factor:.3f} "
                f"ms {1e3 * wall / factor:.1f} {('csv_sha256 ' + digest) if digest else ''}",
                flush=True,
            )
        rounds += 1
        # Whole rounds only; stop once another round would pass --seconds.
        if wall_total * (rounds + 1) / rounds > args.seconds:
            break

    # Read before the reference check, which loads code the ops do not.
    peak_rss_mb = _peak_rss_mb()
    try:
        problems = reference.check_program(args.seed)
    except Exception:  # noqa: BLE001 - a raising check is a failed check
        problems = [traceback.format_exc(limit=3)]
    for problem in problems:
        correct = False
        print(f"reference check failed: {problem}", flush=True)

    ops_per_s = len(scaled_ok) / scaled_all if scaled_all > 0 else 0.0
    p50_ms = 1e3 * statistics.median(scaled_ok) if scaled_ok else 0.0
    print(
        f"info: {attempted} ops in {rounds} rounds, wall {wall_total:.2f} s, "
        f"reference-speed ops_per_s {ops_per_s:.4f}, op_p50_ms {p50_ms:.1f}, "
        f"raw ops_per_s {len(scaled_ok) / wall_total:.4f}, setup in this process {setup_here:.3f} s",
        flush=True,
    )

    if tracer is not None:
        tracer.uninstall()
        trace_path = OUT / f"trace-{workload.name}-{args.seed}.json"
        tracer.dump(trace_path)
        print(f"info: spans written to {trace_path.relative_to(ROOT)}", flush=True)
        from tracing import metric_units

        values = tracer.layer_metrics(attempted, factors)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_units().items()}
    else:
        setups = []
        meter = Speedometer()
        for _ in range(SETUP_PROBES):
            elapsed = _probe_setup(args)
            setups.append(elapsed / meter.mark())
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ops_per_s,
            "op_p50_ms": p50_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def selfcheck(args) -> int:
    """Every workload ``SELFCHECK_REPS`` times, alternating A B C D A B C D ..."""
    if not (SRC / "preview_lqr" / "__init__.py").is_file():
        sys.exit(f"error: no preview_lqr package under {SRC}; run from a full checkout")
    workloads = WORKLOAD_NAMES
    samples = {w: {m: [] for m in END_TO_END_UNITS} for w in workloads}
    runs = {w: [] for w in workloads}
    for rep in range(SELFCHECK_REPS):
        for name in workloads:
            seed = args.seed + rep
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=str(ROOT), check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
                return 1
            result = json.loads(lines[-1])
            runs[name].append((result["attempted"], result["failed"], result["correct"]))
            for metric, entry in result["metrics"].items():
                samples[name][metric].append(entry["value"])
            shown = ", ".join(f"{m} {e['value']:.4g}" for m, e in result["metrics"].items())
            print(f"{name} seed {seed}: {shown}; attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
    summary = {}
    for name in workloads:
        summary[name] = {"runs": runs[name]}
        for metric, values in samples[name].items():
            q1, q2, q3 = _quartiles(values)
            summary[name][metric] = {
                "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("nan"),
                "values": values,
            }
            print(f"{name:18s} {metric:12s} median {q2:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {summary[name][metric]['spread']:.4f}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"selfcheck-{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"date": time.strftime("%Y-%m-%d %H:%M:%S"), "nproc": os.cpu_count(),
             "seconds": args.seconds, "summary": summary},
            handle, indent=1,
        )
    print(f"written {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
