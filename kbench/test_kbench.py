"""The benchmark's own tests, on each workload's minimal-size mode.

Run from the root of a checkout with ``python3 -m pytest kbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["steer-chain", "exact-kernel", "mc-gauss", "mc-variable"]

END_TO_END = {
    "setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.scipy_linalg_s": "s", "import.kolmo_s": "s",
    "model.calls": "count", "model.busy_ms": "ms",
    "gramian.calls": "count", "gramian.busy_ms": "ms", "gramian.self_ms": "ms",
    "expm_calls": "count", "expm_per_job": "count",
    "control.calls": "count", "control.busy_ms": "ms", "control.kappa.busy_ms": "ms",
    "chain.busy_ms": "ms", "chain.steps": "count", "chain.ms_per_step": "ms",
    "chain.expm_per_step": "count", "chain.clause.cost-budget": "count",
    "chain.clause.time-budget": "count", "chain.clause.terminal": "count",
    "kernel.calls": "count", "kernel.busy_ms": "ms", "kernel.targets": "count",
    "mc.simulate.calls": "count", "mc.simulate.busy_ms": "ms", "mc.path_steps": "count",
    "mc.simulate.ns_per_path_step": "ns", "mc.rng.busy_ms": "ms", "mc.normal_draws": "count",
    "mc.draws_per_path_step": "1", "mc.paths_useful_ratio": "1",
    "mc.density.calls": "count", "mc.density.busy_ms": "ms", "mc.verify.busy_ms": "ms",
    "mc.simulations_per_verify": "1",
    "cli.self_ms": "ms", "cli.bytes_written": "B",
    "trace.overhead_ratio": "1", "failed_ratio": "1",
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "kbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert PER_LAYER.items() <= per_layer.items()
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_with_units(workload):
    out = result(bench("--workload", workload, "--trace", "0", "--small"))
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert out["correct"] is True and out["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_with_units(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = result(bench("--workload", workload, "--trace", "1", "--small"))
    units = {k: v["unit"] for k, v in out["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert PER_LAYER.items() <= units.items()
    assert out["correct"] is True  # traced files are byte-identical to untraced ones
    assert out["metrics"]["failed_ratio"]["value"] == out["failed"] / out["attempted"]


def test_injected_check_failure_is_counted():
    out = result(bench("--workload", "exact-kernel", "--trace", "1", "--small",
                       "--inject-failure"))
    assert out["failed"] >= 1
    assert out["metrics"]["failed_ratio"]["value"] == out["failed"] / out["attempted"]
    assert out["correct"] is False


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "kbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "mc-gauss", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
