"""Self-checks of the benchmark, on its shortened (``--quick``) workloads.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root; under a minute on two cores.  Each test starts ``perfbench/run.py``
in a fresh interpreter, exactly as a benchmark run does.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, fleet_spec_document  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(workload: str, seed: int, trace: int) -> dict:
    run = _run("--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace), "--quick")
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared(kind: str) -> dict:
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in document[kind]}


def _counts(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count"
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _result(workload, seed=1, trace=1)
    second = _result(workload, seed=1, trace=1)
    assert set(first["metrics"]) == set(_declared("per_layer"))
    assert _counts(first) == _counts(second)
    assert first["metrics"]["obs.attributed_frac"]["value"] >= 0.95


def test_untraced_run_reports_every_end_to_end_metric():
    result = _result("fleet-stream", seed=1, trace=0)
    declared = _declared("end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_generates_the_fleet_spec():
    assert fleet_spec_document(7) == fleet_spec_document(7)
    first, second = fleet_spec_document(1), fleet_spec_document(2)
    assert first["grid"]["seed"] != second["grid"]["seed"]
    assert [f.get("start_seconds") for f in first["faults"]] != [
        f.get("start_seconds") for f in second["faults"]
    ]
    assert sorted(f["type"] for f in first["faults"]) == [
        "churn-spike", "freq-throttle", "meter-drop", "meter-dup", "noisy-neighbor",
    ]


def test_another_seed_changes_the_run_and_stays_bit_exact():
    # Correctness includes the stream-vs-batch and resume comparisons.
    one = _result("fleet-stream", seed=1, trace=1)
    two = _result("fleet-stream", seed=2, trace=1)
    assert _counts(one) != _counts(two)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _run("--workload", "price-cold", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert run.returncode != 0
    assert '"correct"' not in run.stdout


def test_unknown_workload_is_refused():
    run = _run("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert run.returncode == 2
    assert '"correct"' not in run.stdout
