"""BENCHMARK.json agrees with what run.py reports, and the benchmark refuses
to run without the program."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_lists_what_the_benchmark_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layer == tracing.per_layer_spec()


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_without_timings_drops_only_elapsed_fields():
    doc = {"a": 1, "elapsed_seconds": 2.0, "rows": [{"elapsed_seconds": 1, "x": [3]}]}
    assert run._without_timings(doc) == {"a": 1, "rows": [{"x": [3]}]}
