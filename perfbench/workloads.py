"""The three workloads: what each sets up, times and checks.

Every workload is driven from this one process and thread.  A workload's
``prepare`` is its set-up (timed as ``setup_s``); ``run`` resets the state
the job starts from (untimed), then times the job and checks its output.

* ``price-cold`` regenerates fig19 (icelake-70, Method 2) from an empty
  on-disk cache, so calibration dominates.
* ``price-eval`` warms the fig17 (heavy-320) calibration tables during
  set-up, then times fig17 from those tables, so the evaluation run
  dominates.
* ``fleet-stream`` runs a seeded, faulted, metered fleet spec as one batch
  sweep on the vector engine, then replays it chunk by chunk through the
  streaming billing service with checkpoints and a mid-run resume.

See ``perfbench/README.md`` for why each was chosen.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.stats import median, percentile

#: (name, value, unit) rows a job reports beyond the gated metrics.
Detail = List[Tuple[str, float, str]]

#: Fields ``python -m repro stream --verify`` compares, stream vs batch.
STREAM_VERIFY_FIELDS = (
    "submitted",
    "completed",
    "instructions",
    "cycles",
    "stall_cycles",
    "l3_misses",
    "billing",
    "fault_stats",
)


@dataclass
class JobOutcome:
    """One timed job: its wall time, the checks it passed, what it saw."""

    wall_seconds: float
    checks: List[Tuple[str, bool]]
    detail: Detail
    #: Exact counts the job itself observed (records, checkpoint bytes).
    counts: Dict[str, int] = field(default_factory=dict)
    chunk_ms: List[float] = field(default_factory=list)


def _fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _cold_process_state(cache_dir: Path) -> None:
    """Point the disk cache at ``cache_dir`` and drop in-memory caches."""
    from repro.core.calibration import clear_calibration_cache
    from repro.experiments.harness import clear_experiment_caches

    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    clear_experiment_caches()
    clear_calibration_cache()


# --------------------------------------------------------------------- #
# price-cold / price-eval
# --------------------------------------------------------------------- #
class PriceFigure:
    """Regenerate one price figure and byte-compare it with ``results/``."""

    def __init__(self, figure: str, *, warm: bool, root: Path, min_jobs: int = 1) -> None:
        self.figure = figure
        self.warm = warm
        #: Timed jobs per run (see ``make``).
        self.min_jobs = min_jobs
        self.committed = (root / "results" / f"{figure}.txt").read_text(encoding="utf-8")
        self.child_import = (
            "from repro.experiments.runner import resolve_runner\n"
            "import repro.experiments.harness\n"
            f"resolve_runner({figure!r})\n"
        )

    def prepare(self, workdir: Path, seed: int) -> Dict[str, Any]:
        from repro.experiments.harness import warm_shared_calibrations
        from repro.experiments.runner import resolve_runner

        tables = _fresh_dir(workdir / "tables")
        _cold_process_state(tables)
        resolve_runner(self.figure)
        if self.warm:
            warm_shared_calibrations([self.figure])
        return {"tables": tables}

    def run(self, state: Dict[str, Any], workdir: Path) -> JobOutcome:
        from repro.experiments.runner import resolve_runner

        cache = workdir / "cache"
        if cache.exists():
            shutil.rmtree(cache)
        # A copy of the set-up's tables: warm for price-eval, empty for
        # price-cold.  Jobs never write into the set-up's own directory.
        shutil.copytree(state["tables"], cache)
        _cold_process_state(cache)

        start = time.perf_counter()
        result = resolve_runner(self.figure)()
        rendered = result.render() + "\n"
        wall = time.perf_counter() - start

        gap_pp = abs(result.summary["discount_gap"]) * 100.0
        return JobOutcome(
            wall_seconds=wall,
            checks=[(f"{self.figure} matches results/{self.figure}.txt", rendered == self.committed)],
            detail=[("figure_s", wall, "s"), ("price_gap_pp", gap_pp, "pp")],
        )


# --------------------------------------------------------------------- #
# fleet-stream
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FleetShape:
    """Size of the generated fleet spec and of the replay's pacing."""

    horizon_seconds: float = 10.0
    machines: int = 4
    cores_per_machine: int = 8
    colocation: int = 5
    chunk_epochs: int = 10
    checkpoint_every: int = 50


FULL_FLEET = FleetShape()
QUICK_FLEET = FleetShape(
    horizon_seconds=0.6, machines=1, cores_per_machine=4, colocation=2, checkpoint_every=10
)


def fleet_spec_document(seed: int, shape: FleetShape = FULL_FLEET) -> Dict[str, Any]:
    """The seeded spec document: churn seed and fault windows come from ``seed``.

    Every fault type appears once; the meter faults hit every scenario, so
    each scenario is metered and each window opens and closes inside the
    horizon.
    """
    rng = random.Random(seed)
    horizon = shape.horizon_seconds

    def window() -> Dict[str, float]:
        start = round(rng.uniform(0.05, 0.7) * horizon, 3)
        duration = round(rng.uniform(0.05, 0.2) * horizon, 3)
        return {"start_seconds": start, "duration_seconds": duration}

    def fault_seed() -> int:
        return rng.randrange(1, 2**31)

    return {
        "name": f"perfbench-fleet-{seed}",
        "description": "Generated by perfbench: two mixes, every fault type, metered.",
        "sweep": {"horizon_seconds": horizon, "epoch_seconds": 1e-3},
        "grid": {
            "mixes": ["all", "memory-intensive"],
            "machines": [shape.machines],
            "colocations": [shape.colocation],
            "cores_per_machine": shape.cores_per_machine,
            "seed": rng.randrange(1, 2**31),
        },
        "faults": [
            {"type": "churn-spike", "scenario": "all-*", **window(), "count": 2, "seed": fault_seed()},
            {
                "type": "noisy-neighbor",
                "scenario": "memory-intensive-*",
                **window(),
                "count": 1,
                "seed": fault_seed(),
            },
            {"type": "freq-throttle", "scenario": "*", **window(), "factor": 0.7},
            {"type": "meter-drop", "scenario": "*", "probability": 0.05, "seed": fault_seed()},
            {"type": "meter-dup", "scenario": "*", "probability": 0.05, "seed": fault_seed()},
        ],
    }


class FleetStream:
    """Batch sweep, then a checkpointed, resumed streaming replay of it."""

    child_import = (
        "import repro.platform.batch\nimport repro.scenarios\nimport repro.serve\n"
    )
    min_jobs = 1

    def __init__(self, shape: FleetShape = FULL_FLEET) -> None:
        self.shape = shape

    def prepare(self, workdir: Path, seed: int) -> Dict[str, Any]:
        from repro.scenarios import compile_spec, parse_spec

        _cold_process_state(_fresh_dir(workdir / "cache"))
        spec = parse_spec(fleet_spec_document(seed, self.shape), origin="perfbench")
        return {"compiled": compile_spec(spec)}

    def run(self, state: Dict[str, Any], workdir: Path) -> JobOutcome:
        from repro.scenarios import chunk_plan
        from repro.serve import StreamReplay, checkpoint

        shape = self.shape
        compiled = state["compiled"]
        ckpt = _fresh_dir(workdir / "checkpoints") / "stream.ckpt.json"
        checks: List[Tuple[str, bool]] = []
        chunk_seconds: List[float] = []
        save_seconds: List[float] = []
        records = checkpoint_bytes = 0
        load_seconds = 0.0

        start = time.perf_counter()
        batch = compiled.sweep(meter=True).run("vector")
        stream_start = time.perf_counter()
        replay = StreamReplay(compiled)
        plan = chunk_plan(replay.epochs_total, shape.chunk_epochs)
        resume_at = (len(plan) // 2) // shape.checkpoint_every * shape.checkpoint_every
        for done, chunk in enumerate(plan, 1):
            chunk_start = time.perf_counter()
            result = replay.ingest(chunk)
            chunk_seconds.append(time.perf_counter() - chunk_start)
            records += len(result.records)
            checks.append(
                (f"chunk {chunk.index} advanced its epochs", result.epochs == chunk.epochs or result.done)
            )
            if done % shape.checkpoint_every:
                continue
            save_start = time.perf_counter()
            checkpoint.save_checkpoint(ckpt, replay)
            save_seconds.append(time.perf_counter() - save_start)
            checkpoint_bytes += ckpt.stat().st_size
            if done == resume_at:
                load_start = time.perf_counter()
                restored = checkpoint.load_checkpoint(ckpt, expect_fingerprint=replay.fingerprint)
                load_seconds = time.perf_counter() - load_start
                checks.append(
                    (
                        f"checkpoint after chunk {done} restores its position",
                        (restored.epochs_done, restored.chunks_ingested)
                        == (replay.epochs_done, replay.chunks_ingested),
                    )
                )
                replay = restored
        records += len(replay.drain().records)
        streamed = replay.result()
        end = time.perf_counter()

        batch_by_name = {s.name: s for s in batch.scenarios}
        for scenario in streamed.scenarios:
            reference = batch_by_name.get(scenario.name)
            for name in STREAM_VERIFY_FIELDS:
                checks.append(
                    (
                        f"{scenario.name}.{name} stream == batch",
                        reference is not None
                        and getattr(scenario, name) == getattr(reference, name),
                    )
                )
        checks.append(
            ("stream covers every batch scenario", len(streamed.scenarios) == len(batch.scenarios))
        )

        stream_s = end - stream_start
        chunk_ms = [1e3 * s for s in chunk_seconds]
        return JobOutcome(
            wall_seconds=end - start,
            checks=checks,
            detail=[
                ("sweep_s", stream_start - start, "s"),
                ("stream_s", stream_s, "s"),
                ("stream_sim_x", compiled.spec.horizon_seconds / stream_s, "sim_s/s"),
                (f"chunk_ms_p50 (n={len(chunk_ms)})", percentile(chunk_ms, 50), "ms"),
                (f"chunk_ms_p99 (n={len(chunk_ms)})", percentile(chunk_ms, 99), "ms"),
                (
                    f"checkpoint_ms_p50 (n={len(save_seconds)})",
                    1e3 * median(save_seconds) if save_seconds else 0.0,
                    "ms",
                ),
                ("checkpoint_load_ms", 1e3 * load_seconds, "ms"),
            ],
            counts={"serve.records": records, "serve.checkpoint.bytes": checkpoint_bytes},
            chunk_ms=chunk_ms,
        )


def make(name: str, root: Path, *, quick: bool = False) -> Optional[Any]:
    """The workload called ``name``; ``quick`` selects the shortened form.

    The shortened forms, used by the benchmark's own tests, keep each
    workload's layers and checks but shrink the work.  fig11 stands in for
    fig19: cold, it is mostly calibration.  fig15 stands in for fig17: from
    warm tables, it is all evaluation.  Both are byte-checked against their
    committed results.  The fleet spec shrinks to 600 epochs.
    """
    if name == "price-cold":
        return PriceFigure("fig11" if quick else "fig19", warm=False, root=root)
    if name == "price-eval":
        # Two timed jobs per run: one fig17 job spread 19% (IQR over median)
        # across runs on the reference machine, two spread 6-12%.  The other
        # workloads time one job, so that all runs fit the time budget in
        # perfbench/README.md.
        return PriceFigure("fig15" if quick else "fig17", warm=True, root=root, min_jobs=2)
    if name == "fleet-stream":
        return FleetStream(QUICK_FLEET if quick else FULL_FLEET)
    return None


WORKLOADS = ("price-cold", "price-eval", "fleet-stream")
