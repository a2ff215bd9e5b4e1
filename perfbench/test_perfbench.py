"""Reduced-size self-tests of the benchmark.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
Every test drives the real entry points in fresh processes at the
``--small`` input sizes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import LOOP_SLACK  # noqa: E402
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOG = json.loads((HERE / "catalog.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--small"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    return result


def test_catalog_matches_benchmark_declaration():
    assert sorted(CATALOG["workloads"]) == sorted(WORKLOADS)
    layer_metrics = [name for layer in CATALOG["layers"]
                     for name in layer["metrics"]]
    assert sorted(layer_metrics) == sorted(m["name"]
                                           for m in BENCH["per_layer"])
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for layer in CATALOG["layers"]:
        for moved in layer["moves"]:
            assert moved in end_to_end or moved in layer_metrics, moved


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3",
                            "--seconds", "0", "--trace", "0"))
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]
    for declared in BENCH["end_to_end"]:
        entry = metrics[declared["name"]]
        assert entry["unit"] == declared["unit"]
        assert entry["value"] > 0, declared["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_simulate_the_same(workload):
    fidelity = CATALOG["workloads"][workload]["fidelity"]
    digests = []
    for trace in (False, True):
        request = {"workload": workload, "seed": 5, "fidelity": fidelity,
                   "trace": trace, "small": True, "trace_out": None}
        proc = subprocess.run(
            [sys.executable, "perfbench/workloads.py", json.dumps(request)],
            capture_output=True, text=True, cwd=ROOT, timeout=170)
        assert proc.returncode == 0, proc.stderr
        outcome = json.loads(proc.stdout.strip().splitlines()[-1])
        digests.append(outcome["digest"])
        if trace:
            covered = sum(layer["self_s"]
                          for layer in outcome["layers"].values())
            assert ((1 - LOOP_SLACK) * outcome["loop_s"] <= covered
                    <= outcome["loop_s"])
            assert outcome["layers"]["sim.engine"]["calls"] >= 1
    assert digests[0] == digests[1]


def test_traced_run_reports_every_per_layer_metric():
    result = _result(_bench("--workload", "hadoop", "--seed", "3",
                            "--seconds", "0", "--trace", "1"))
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert metrics["net.switch.self_s"] > 0
    assert metrics["trace.overhead_s"] > 0
    assert metrics["sim.fluid.self_s"] == 0
    assert (ROOT / "perfbench" / "out" / "hadoop-seed3.trace.json").is_file()


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("--workload", "hadoop", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
