"""The bench-regression gate: matching, thresholds, exit codes."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import (
    FleetSweep,
    VectorEngine,
    VectorEngineConfig,
    partition_scenarios,
    scenario_grid,
)
from repro.workloads.registry import default_registry
from repro.workloads.synthetic import WorkloadMixer

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_bench_regression", ROOT / "tools" / "check_bench_regression.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _trajectory(path: Path, runs) -> Path:
    path.write_text(json.dumps({"version": 1, "runs": runs}), encoding="utf-8")
    return path


def _sweep_run(seconds_vector, seconds_scalar, fleet_size=80):
    return {
        "source": "fleet-sweep",
        "figures": {
            "fleet-sweep-vector": seconds_vector,
            "fleet-sweep-scalar": seconds_scalar,
        },
        "fleet_size": fleet_size,
        "horizon_seconds": 0.5,
        "registry_scale": 0.05,
    }


def _stream_run(seconds, spec="smoke", chunk_epochs=25):
    return {
        "source": "stream-replay",
        "figures": {"stream-replay": seconds},
        "spec": spec,
        "chunk_epochs": chunk_epochs,
    }


def test_clean_run_passes(tmp_path, capsys):
    baseline = _trajectory(
        tmp_path / "base.json", [_sweep_run(0.2, 0.4), _stream_run(0.1)]
    )
    fresh = _trajectory(
        tmp_path / "fresh.json", [_sweep_run(0.22, 0.41), _stream_run(0.12)]
    )
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    out = capsys.readouterr().out
    assert "all 3 compared entries" in out


def test_regression_fails(tmp_path, capsys):
    baseline = _trajectory(tmp_path / "base.json", [_stream_run(0.1)])
    fresh = _trajectory(tmp_path / "fresh.json", [_stream_run(0.5)])
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_baseline_is_the_minimum_over_matches(tmp_path):
    # two baseline entries: the faster one anchors the gate
    baseline = _trajectory(
        tmp_path / "base.json", [_stream_run(0.3), _stream_run(0.1)]
    )
    fresh = _trajectory(tmp_path / "fresh.json", [_stream_run(0.2)])
    assert (
        gate.main(
            ["--baseline", str(baseline), "--fresh", str(fresh), "--factor", "1.5"]
        )
        == 1
    )


def test_signature_mismatch_is_skipped_not_failed(tmp_path, capsys):
    baseline = _trajectory(tmp_path / "base.json", [_stream_run(0.1, spec="smoke")])
    fresh = _trajectory(
        tmp_path / "fresh.json",
        [_stream_run(5.0, spec="chaos-smoke"), _sweep_run(1.0, 2.0)],
    )
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    out = capsys.readouterr().out
    assert out.count("SKIP") == 3  # chaos-smoke stream + both sweep figures


def test_differing_grids_do_not_compare(tmp_path, capsys):
    baseline = _trajectory(
        tmp_path / "base.json", [_sweep_run(0.1, 0.2, fleet_size=80)]
    )
    fresh = _trajectory(
        tmp_path / "fresh.json", [_sweep_run(9.0, 9.0, fleet_size=800)]
    )
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    assert "SKIP" in capsys.readouterr().out


def test_ungated_sources_are_ignored(tmp_path, capsys):
    runs = [{"source": "benchmarks", "figures": {"fig11": 10.0}}]
    baseline = _trajectory(tmp_path / "base.json", runs)
    fresh = _trajectory(
        tmp_path / "fresh.json",
        [{"source": "benchmarks", "figures": {"fig11": 99.0}}],
    )
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_calibrate_entries_gate_on_mode_and_profile(tmp_path, capsys):
    cal = {
        "source": "calibrate",
        "figures": {"calibrate": 0.1},
        "mode": "once",
        "profile": "sg2042-like",
        "parameter": "contention.memory_queueing_coefficient",
    }
    baseline = _trajectory(tmp_path / "base.json", [cal])
    slow = dict(cal, figures={"calibrate": 0.5})
    fresh = _trajectory(tmp_path / "fresh.json", [slow])
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 1


def test_bad_factor_is_a_usage_error(tmp_path, capsys):
    baseline = _trajectory(tmp_path / "base.json", [])
    fresh = _trajectory(tmp_path / "fresh.json", [])
    assert (
        gate.main(
            ["--baseline", str(baseline), "--fresh", str(fresh), "--factor", "0.9"]
        )
        == 2
    )


def test_unreadable_trajectory_exits_loudly(tmp_path):
    fresh = _trajectory(tmp_path / "fresh.json", [])
    with pytest.raises(SystemExit, match="cannot read"):
        gate.main(
            ["--baseline", str(tmp_path / "missing.json"), "--fresh", str(fresh)]
        )


def test_committed_baseline_matches_the_ci_smoke_shape():
    """The committed anchor must cover every gated CI smoke entry, and the
    counted runs must carry their engine work counters."""
    document = json.loads((ROOT / "BENCH_baseline.json").read_text(encoding="utf-8"))
    signatures = set()
    for run in document["runs"]:
        for signature, _ in gate._signatures(run):
            signatures.add(signature)
    assert ("fleet-sweep", "fleet-sweep-vector", 80, 0.5, 0.05) in signatures
    assert ("fleet-sweep", "fleet-sweep-scalar", 80, 0.5, 0.05) in signatures
    assert ("stream-replay", "stream-replay", "smoke", 25) in signatures
    assert (
        "calibrate",
        "calibrate",
        "once",
        "sg2042-like",
        "contention.memory_queueing_coefficient",
    ) in signatures
    counted = {gate._count_signature(run) for run in document["runs"]} - {None}
    assert {signature[0] for signature in counted} == {"fleet-sweep", "stream-replay"}


def _engine_counts(fixed_point_iterations):
    """Work counters of a small vector fleet run for 50 epochs."""
    mixer = WorkloadMixer(default_registry().scaled(0.05).all(), seed=5)
    engine = VectorEngine(
        CASCADE_LAKE_5218,
        machines=2,
        config=VectorEngineConfig(fixed_point_iterations=fixed_point_iterations),
        materialize_handles=False,
    )
    for machine in range(2):
        for thread in range(4):
            engine.submit(mixer.next(), machine=machine, thread_id=thread)
    for _ in range(50):
        engine.run_epoch()
    return dataclasses.asdict(engine.stats)


def _counted_stream_run(seconds, counts):
    return dict(_stream_run(seconds), finished=True, engine_counts=counts)


def test_one_extra_fixed_point_iteration_fails_the_counter_gate(tmp_path, capsys):
    counts = _engine_counts(2)
    baseline = _trajectory(tmp_path / "base.json", [_counted_stream_run(0.1, counts)])
    same = _trajectory(tmp_path / "same.json", [_counted_stream_run(0.1, dict(counts))])
    assert gate.main(["--baseline", str(baseline), "--fresh", str(same)]) == 0
    assert "counters match exactly" in capsys.readouterr().out

    extra = _engine_counts(3)
    assert extra["fixed_point_iterations"] == counts["fixed_point_iterations"] + 50
    # Just as fast, but one more fixed-point iteration per epoch.
    fresh = _trajectory(tmp_path / "fresh.json", [_counted_stream_run(0.1, extra)])
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 1
    out = capsys.readouterr().out
    assert "FAIL stream-replay/engine_counts" in out
    assert "fixed_point_iterations 100 -> 150" in out


def test_counter_gate_skips_runs_without_counters(tmp_path, capsys):
    counts = _engine_counts(2)
    baseline = _trajectory(tmp_path / "base.json", [_stream_run(0.1)])
    fresh = _trajectory(tmp_path / "fresh.json", [_counted_stream_run(0.1, counts)])
    assert gate.main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    assert "SKIP stream-replay/engine_counts" in capsys.readouterr().out
    # A fresh run without counters never compares against counted ones.
    assert gate.main(["--baseline", str(fresh), "--fresh", str(baseline)]) == 0


def test_sweep_counters_match_on_the_scenario_grid(tmp_path):
    counts = {"epochs": 500, "fixed_point_iterations": 1000}
    base = dict(_sweep_run(0.2, 0.4), scenarios=["all-m2-c5"], engine_counts=counts)
    moved = dict(base, engine_counts=dict(counts, epochs=501))
    other_grid = dict(moved, scenarios=["memory-intensive-m2-c5"])
    baseline = str(_trajectory(tmp_path / "base.json", [base]))
    moved_path = str(_trajectory(tmp_path / "moved.json", [moved]))
    other_path = str(_trajectory(tmp_path / "other.json", [other_grid]))
    assert gate.main(["--baseline", baseline, "--fresh", moved_path]) == 1
    assert gate.main(["--baseline", baseline, "--fresh", other_path]) == 0


def test_sweep_counters_are_only_compared_at_the_same_shard_count(tmp_path, capsys):
    """Every shard steps the whole horizon and ``run_sharded`` sums the
    shards' counters, so a 2-shard run of a multi-scenario grid does more
    work than the 1-shard run with the same results."""
    grid = scenario_grid(["all", "memory-intensive"], [1], [1], cores_per_machine=3, seed=5)
    tiny = dict(horizon_seconds=0.05, epoch_seconds=1e-3, registry_scale=0.05)
    single = FleetSweep(grid, **tiny).run("vector").engine_counts
    parts = [
        FleetSweep([grid[index] for index in part], **tiny).run("vector").engine_counts
        for part in partition_scenarios(grid, 2)
    ]
    summed = {name: sum(part[name] for part in parts) for name in single}
    assert summed["epochs"] == 2 * single["epochs"]

    def sweep(shards, counts):
        return dict(
            _sweep_run(0.2, 0.4, fleet_size=2),
            scenarios=[scenario.name for scenario in grid],
            shards=shards,
            engine_counts=counts,
        )

    one_shard = str(_trajectory(tmp_path / "one.json", [sweep(1, single)]))
    two_shards = str(_trajectory(tmp_path / "two.json", [sweep(2, summed)]))
    assert gate.main(["--baseline", one_shard, "--fresh", two_shards]) == 0
    assert "SKIP fleet-sweep/engine_counts" in capsys.readouterr().out
    both = str(_trajectory(tmp_path / "both.json", [sweep(1, single), sweep(2, summed)]))
    assert gate.main(["--baseline", both, "--fresh", two_shards]) == 0
    assert "counters match exactly" in capsys.readouterr().out
