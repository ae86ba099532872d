#!/usr/bin/env python3
"""Gate CI on perf regressions against the committed bench baseline.

``BENCH_engine.json`` is a CI artifact, regenerated every run and never
committed; ``BENCH_baseline.json`` is its committed anchor — one known-good
trajectory of the same smoke commands, refreshed deliberately whenever the
engine's cost profile legitimately moves.  This script compares the fresh
trajectory against the anchor:

* Entries match on their *workload signature*, not their position —
  a fleet-sweep entry matches on (figure key, fleet size, horizon,
  registry scale), a stream-replay entry on (spec, chunk epochs), a
  calibrate entry on (mode, profile, parameter) — so reordering or
  adding smoke steps never miscompares.
* The baseline time for a signature is the *minimum* over its matching
  baseline entries: the anchor is "the engine has gone this fast", which
  a noisy CI runner should only beat, never trail by more than the
  allowed factor.
* A fresh entry slower than ``--factor`` (default 1.3x) times its
  baseline fails the gate.  Fresh entries with no baseline match are
  reported and skipped — new smoke steps should not fail CI until a
  baseline for them is committed.
* Fleet-sweep and stream-replay runs also carry the vector engine's
  deterministic work counters (``engine_counts``: epochs, fixed-point
  iterations, water-fill passes, advance passes, submissions,
  completions).  Those are free of noise, so they gate exactly: a fresh
  run whose counters differ in any field from a baseline run of the same
  workload fails.  A fleet-sweep's counters are summed over its shards
  and every shard steps the whole horizon, so the shard count is part of
  its workload (results are the same whatever the shard count; the work
  is not).  A change that moves the counters on purpose refreshes the
  baseline.  Runs without counters, on either side, are skipped.

Usage:
    python tools/check_bench_regression.py \
        --baseline BENCH_baseline.json --fresh BENCH_engine.json [--factor 1.3]

Exit codes: 0 clean (or nothing comparable), 1 regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Sources the gate understands; anything else (pytest-benchmark runs,
#: figure-runner checks) is wall-clock dominated by shared-cache warmup
#: and too noisy to gate on.
GATED_SOURCES = ("fleet-sweep", "stream-replay", "calibrate")

Signature = Tuple[Any, ...]

#: Sources whose runs carry ``engine_counts``.
COUNTED_SOURCES = ("fleet-sweep", "stream-replay")


def _load_runs(path: Path) -> List[Dict[str, Any]]:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise SystemExit(f"cannot read {path}: {error}")
    except ValueError as error:
        raise SystemExit(f"{path} is not valid JSON: {error}")
    if not isinstance(document, dict) or not isinstance(document.get("runs"), list):
        raise SystemExit(f"{path} is not a benchlog trajectory (missing 'runs')")
    return [run for run in document["runs"] if isinstance(run, dict)]


def _signatures(run: Dict[str, Any]) -> Iterator[Tuple[Signature, float]]:
    """Yield one (signature, seconds) per figure entry of a gated run."""
    source = run.get("source")
    if source not in GATED_SOURCES:
        return
    figures = run.get("figures")
    if not isinstance(figures, dict):
        return
    for figure, seconds in figures.items():
        if not isinstance(seconds, (int, float)):
            continue
        if source == "fleet-sweep":
            key: Signature = (
                source,
                figure,
                run.get("fleet_size"),
                run.get("horizon_seconds"),
                run.get("registry_scale"),
            )
        elif source == "stream-replay":
            key = (source, figure, run.get("spec"), run.get("chunk_epochs"))
        else:  # calibrate
            key = (
                source,
                figure,
                run.get("mode"),
                run.get("profile"),
                run.get("parameter"),
            )
        yield key, float(seconds)


def _count_signature(run: Dict[str, Any]) -> Optional[Signature]:
    """The workload a run's ``engine_counts`` belong to, or ``None``."""
    source = run.get("source")
    if source not in COUNTED_SOURCES or not isinstance(run.get("engine_counts"), dict):
        return None
    if source == "fleet-sweep":
        return (
            source,
            run.get("fleet_size"),
            run.get("horizon_seconds"),
            run.get("registry_scale"),
            run.get("shards"),
            run.get("spec"),
            tuple(run.get("scenarios") or ()),
        )
    return (source, run.get("spec"), run.get("chunk_epochs"), run.get("finished"))


def _count_mismatches(
    baseline_runs: List[Dict[str, Any]], fresh_runs: List[Dict[str, Any]]
) -> Tuple[int, List[str]]:
    """Compare work counters exactly; returns (compared, failure lines)."""
    baseline: Dict[Signature, List[Dict[str, Any]]] = {}
    for run in baseline_runs:
        signature = _count_signature(run)
        if signature is not None:
            baseline.setdefault(signature, []).append(run["engine_counts"])
    compared = 0
    failures = []
    for run in fresh_runs:
        signature = _count_signature(run)
        if signature is None:
            continue
        label = _describe(signature[:1] + ("engine_counts",) + signature[1:-1])
        if signature not in baseline:
            print(f"SKIP {label}: no baseline counters")
            continue
        compared += 1
        fresh = run["engine_counts"]
        for counts in baseline[signature]:
            moved = [
                f"{name} {counts.get(name)} -> {fresh.get(name)}"
                for name in sorted(set(counts) | set(fresh))
                if counts.get(name) != fresh.get(name)
            ]
            if moved:
                failures.append(f"FAIL {label}: {', '.join(moved)}")
                break
        else:
            print(f"ok   {label}: counters match exactly")
    return compared, failures


def _describe(signature: Signature) -> str:
    source, figure = signature[0], signature[1]
    detail = ", ".join(str(part) for part in signature[2:] if part is not None)
    return f"{source}/{figure}" + (f" ({detail})" if detail else "")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when fresh bench entries regress vs the committed baseline"
    )
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--fresh", required=True, type=Path)
    parser.add_argument(
        "--factor",
        type=float,
        default=1.3,
        help="fail when fresh > factor * baseline (default: 1.3)",
    )
    args = parser.parse_args(argv)
    if args.factor <= 1.0:
        print("--factor must be > 1.0", file=sys.stderr)
        return 2

    baseline_runs = _load_runs(args.baseline)
    fresh_runs = _load_runs(args.fresh)
    baseline_best: Dict[Signature, float] = {}
    for run in baseline_runs:
        for signature, seconds in _signatures(run):
            best = baseline_best.get(signature)
            if best is None or seconds < best:
                baseline_best[signature] = seconds

    fresh: List[Tuple[Signature, float]] = []
    for run in fresh_runs:
        fresh.extend(_signatures(run))

    if not fresh:
        print(
            f"no gated entries ({', '.join(GATED_SOURCES)}) in {args.fresh}; "
            "nothing to compare"
        )
        return 0

    failures = []
    compared = 0
    for signature, seconds in fresh:
        best = baseline_best.get(signature)
        if best is None:
            print(f"SKIP {_describe(signature)}: no baseline entry (new smoke step?)")
            continue
        compared += 1
        ratio = seconds / best if best > 0 else float("inf")
        verdict = "FAIL" if ratio > args.factor else "ok"
        print(
            f"{verdict:4s} {_describe(signature)}: {seconds:.3f}s vs baseline "
            f"{best:.3f}s ({ratio:.2f}x, limit {args.factor:g}x)"
        )
        if ratio > args.factor:
            failures.append((signature, seconds, best, ratio))

    counts_compared, count_failures = _count_mismatches(baseline_runs, fresh_runs)
    for line in count_failures:
        print(line)
    if count_failures:
        print(
            f"\n{len(count_failures)} of {counts_compared} counted run(s) changed "
            "their engine work counters; refresh BENCH_baseline.json only if "
            "the change is intended",
            file=sys.stderr,
        )
    if failures:
        print(
            f"\n{len(failures)} of {compared} compared entr"
            f"{'y' if compared == 1 else 'ies'} regressed beyond "
            f"{args.factor:g}x; refresh BENCH_baseline.json only if the "
            "slowdown is intended",
            file=sys.stderr,
        )
    if failures or count_failures:
        return 1
    print(
        f"\nall {compared} compared entries within {args.factor:g}x of baseline; "
        f"{counts_compared} counted run(s) match exactly"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
