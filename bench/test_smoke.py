"""Smoke test of the benchmark runner: every workload on its cut-down
instance list, traced and untraced.

    python3 -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=CHECKOUT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_metrics(result: dict, listed: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    info, result = run(workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    report = info["report"]
    assert report["failed_frac"] == {
        "value": 0.0, "unit": "ratio", "samples": result["attempted"]}
    units = {"wall_s": "s", "wall_ref_s": "s", "setup_s": "s", "setup_raw_s": "s",
             "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_p50_ref_ms": "ms"}
    if workload == "corpus-verify":
        units["op_p99_ms"] = "ms"
    reported = {k: v for k, v in report.items()
                if isinstance(v, dict) and "unit" in v}
    assert {k: v["unit"] for k, v in reported.items()} == {
        **units, "failed_frac": "ratio"}
    for name in units:
        assert reported[name]["value"] > 0 and reported[name]["samples"] >= 1
    for key in ("git_sha", "python", "nproc", "cpu_model", "seed"):
        assert key in info["record"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    info, result = run(workload, 1)
    assert_metrics(result, SPEC["per_layer"])
    assert info["report"]["problems"] == []


def test_refuses_to_run_without_library(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "reference.json").write_bytes((HERE / "reference.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""
