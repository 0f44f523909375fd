"""Smoke test of the benchmark: each workload at its tiny size, timed and
traced, passes its correctness checks and emits every metric named in
BENCHMARK.json with its unit.

    python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# the per-layer metrics later changes are judged by; BENCHMARK.json may
# add to them but not drop one
NAMED = (
    "fft.calls", "fft.points", "fft.s", "fft.calls_per_step",
    "dynamics.self_s", "dynamics.steps", "dynamics.samples", "dynamics.us_per_step",
    "dynamics.mass_drift_max", "functionals.self_s", "core.self_s",
    "stability.orbit_distance_calls", "stability.orbit_distance_ms", "stability.excursion_max",
    "profiles.scale_field_calls", "profiles.scale_field_ms",
    "minimize.iterations", "minimize.ms_per_iteration", "minimize.failed", "minimize.residual_max",
    "audit.rel_err_max", "snapshots.s", "snapshots.bytes", "cli.self_s", "trace.overhead_frac",
)
LAYERS = ("core", "functionals", "profiles", "minimize", "dynamics", "stability", "audit", "snapshots", "cli")


def run(root, workload, trace, seed=3):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_named_metrics_are_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(NAMED) <= declared
    assert {f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s")} <= declared
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb", "ok_frac"}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric(workload, trace, table):
    metrics = result_of(run(ROOT, workload, trace))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC[table]}
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_traced_counts_repeat_for_a_fixed_seed():
    counts = ("fft.calls", "fft.points", "dynamics.steps", "minimize.iterations")
    first, second = (result_of(run(ROOT, "sweep", 1))["metrics"] for _ in range(2))
    assert all(first[k]["value"] > 0 for k in counts)
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
