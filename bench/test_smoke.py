"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, plus the refusal to run without the package.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def bench(*args, cwd=None, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=600, cwd=cwd)


def tiny(workload, trace):
    done = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], done.stderr
    return result, json.loads((BENCH / "out" / f"{workload}-trace{trace}.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, full = tiny(workload, 0)
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert full["metrics"]["fail_frac"]["value"] == 0
    assert {"python", "nproc", "commit", "dirty"} <= set(full["metadata"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result, _ = tiny(workload, 1)
    expected = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    calls = {k[:-len(".calls")]: v for k, v in values.items() if k.endswith(".calls")}
    if workload == "reduce_sd":
        shares = {k: v for k, v in values.items()
                  if k.endswith(".share") and k != "z2.equivariant_sd.share"}
        assert max(shares, key=shares.get) == "moves.enumerate_z2.share"
        assert all(v == 0 for k, v in calls.items() if k.startswith("fan."))
    if workload == "fan_check":
        assert all(v == 0 for k, v in calls.items() if k.startswith("moves."))
        assert values["reduction.flips_tried"] == 0
    else:
        assert values["reduction.flips_tried"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
