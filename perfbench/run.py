"""cnls-lab benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and NOTES.md) as a closed loop: a
single client thread calls the public cnls_lab API one task after another
until --seconds have passed and every task has run at least once.

--trace 0 reports the end-to-end metrics, with nothing instrumented.
--trace 1 runs one plain round of the tasks, installs the tracer
(tracing.py) and runs whole traced rounds; it reports the per-layer metrics
per round and saves the spans under .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json. Exit code 0 when every task passed its correctness checks,
1 when one failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("core", "functionals", "profiles", "minimize", "dynamics", "stability", "audit", "snapshots", "cli")


def cap_threads() -> None:
    """Cap BLAS and OpenMP pools at nproc, before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            os.environ[var] = str(nproc)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the smoke test")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure_setup(workload: str, tiny: bool) -> float:
    """Median set-up time over fresh processes, since the import is paid
    once per process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def run_task(fn, tracer=None):
    """Run one task: (seconds, ok, checks). A task that raises fails."""
    if tracer is not None:
        tracer.checks = []
    t0 = time.perf_counter()
    try:
        checks = fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, False, []
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        checks = checks + tracer.checks
    for metric, value, ok in checks:
        if not ok:
            print(f"check failed: {metric} = {value!r}", file=sys.stderr)
    return elapsed, all(ok for _, _, ok in checks), checks


def timed_run(tasks, seconds: float, setup_s: float) -> tuple:
    durations = {name: [] for name, _ in tasks}
    failed = attempted = 0
    start = time.perf_counter()
    while attempted < len(tasks) or time.perf_counter() - start < seconds:
        name, fn = tasks[attempted % len(tasks)]
        elapsed, ok, _checks = run_task(fn)
        durations[name].append(elapsed)
        attempted += 1
        failed += not ok
    metrics = {
        "setup_s": setup_s,
        # one pass over the workload, each task at its median time
        "wall_s": sum(statistics.median(d) for d in durations.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    return attempted, failed, metrics


def traced_run(tasks, seconds: float, tracer, package) -> tuple:
    start = time.perf_counter()
    attempted = failed = 0

    def one_round(traced):
        nonlocal attempted, failed
        t0 = time.perf_counter()
        for _name, fn in tasks:
            _elapsed, ok, checks = run_task(fn, tracer if traced else None)
            attempted += 1
            failed += not ok
            if traced:
                for metric, value, _ok in checks:
                    maxima[metric] = max(maxima.get(metric, value), value)
        return time.perf_counter() - t0

    maxima = {}
    plain = one_round(False)
    tracer.install(package)
    rounds = []
    while not rounds or time.perf_counter() - start + rounds[-1] <= seconds:
        rounds.append(one_round(True))
    overhead = (statistics.median(rounds) - plain) / plain
    return attempted, failed, layer_metrics(tracer.totals(), maxima, len(rounds), overhead)


def layer_metrics(totals, maxima, rounds: int, overhead: float) -> dict:
    """Per-layer metrics per traced round; ratios over all rounds."""

    def per_round(key):
        return totals.get(key, 0.0) / rounds

    def ratio(num, den, scale=1.0):
        return scale * totals.get(num, 0.0) / totals[den] if totals.get(den) else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = per_round(f"{layer}.calls")
        m[f"{layer}.self_s"] = per_round(f"{layer}.self_s")
    for key in ("fft.calls", "fft.points", "fft.s", "dynamics.steps", "dynamics.samples",
                "stability.orbit_distance_calls", "profiles.scale_field_calls",
                "minimize.iterations", "minimize.failed", "snapshots.s", "snapshots.bytes"):
        m[key] = per_round(key)
    m["fft.calls_per_step"] = ratio("fft.evolve_calls", "dynamics.steps")
    m["dynamics.us_per_step"] = ratio("dynamics.evolve_s", "dynamics.steps", 1e6)
    m["stability.orbit_distance_ms"] = ratio("stability.orbit_distance_s", "stability.orbit_distance_calls", 1e3)
    m["profiles.scale_field_ms"] = ratio("profiles.scale_field_s", "profiles.scale_field_calls", 1e3)
    m["minimize.ms_per_iteration"] = ratio("minimize.minimize_on_s", "minimize.iterations", 1e3)
    for metric in ("dynamics.mass_drift_max", "stability.excursion_max", "stability.vdd_ratio_max",
                   "minimize.residual_max", "profiles.level_map_err_max", "audit.rel_err_max",
                   "cli.rerun_diff_files"):
        m[metric] = float(maxima.get(metric, 0.0))
    m["trace.overhead_frac"] = overhead
    m["trace.rounds"] = rounds
    return m


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cnls_lab" / "__init__.py").is_file():
        print(f"no cnls_lab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_only:
        t0 = time.perf_counter()
        workloads.setup(args.workload, args.tiny)
        print(repr(time.perf_counter() - t0))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.patch_fft()
    else:
        setup_s = measure_setup(args.workload, args.tiny)
    ctx = workloads.setup(args.workload, args.tiny)
    package = ctx["cl"]
    if Path(package.__file__).resolve().parent != SRC / "cnls_lab":
        print(f"cnls_lab was imported from {package.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        tasks = workloads.tasks(args.workload, ctx, args.seed, workdir)
        if tracer is None:
            attempted, failed, values = timed_run(tasks, args.seconds, setup_s)
            table = spec["end_to_end"]
        else:
            attempted, failed, values = traced_run(tasks, args.seconds, tracer, package)
            table = spec["per_layer"]
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
