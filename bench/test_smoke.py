"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Runs every workload with ``--smoke`` and checks the result line against
BENCHMARK.json, that the Monte Carlo counts repeat exactly at one seed,
that a second seed passes every output check, and that the benchmark
refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MC_COUNTS = ("nelson_sde.path_steps", "nelson_sde.clamp_rate", "nelson_sde.node_cross_frac")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess, metrics: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_on_two_seeds(workload):
    for seed in (1, 2):
        result = result_of(run(workload, seed, 0), SPEC["end_to_end"])
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_repeatable_counts(workload):
    first = result_of(run(workload, 1, 1), SPEC["per_layer"])
    second = result_of(run(workload, 1, 1), SPEC["per_layer"])
    for name in MC_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if workload.startswith("mc-"):
        assert first["metrics"]["nelson_sde.path_steps"]["value"] > 0


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
