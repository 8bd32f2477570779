"""Smoke test of the benchmark at tiny input sizes (about a minute).

    PYTHONPATH=src python -m pytest benchmarks/namerbench -q

It is not part of the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/namerbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_workload_emits_every_metric():
    result = last_json(run_bench("--smoke", "--seconds", "1", "--seed", "3"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for name in names:
            assert f"{workload}.{name}" in result["metrics"], (workload, name)
        for spec in SPEC["end_to_end"]:
            assert result["metrics"][f"{workload}.{spec['name']}"]["value"] > 0


def test_one_workload_reports_exactly_the_contract_metrics():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = last_json(run_bench(
            "--smoke", "--workload", "serve_hot", "--seed", "5", "--seconds", "1",
            "--trace", trace,
        ))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "namerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "mine", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
