"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload price-cold --seed 1 --seconds 10 --trace 0

``--workload`` is ``price-cold``, ``price-eval`` or ``fleet-stream`` (see
``perfbench/README.md``).  With ``--trace 0`` the job is timed with
nothing attached but the engine-counter census, and the last line of
standard output is one JSON object carrying every end-to-end metric of
``BENCHMARK.json``.  With ``--trace 1`` the job runs twice, untraced then
traced, and the JSON carries every per-layer metric.  The lines before it
are a readable report: the machine and code stamp, every metric with its
unit, and the workload's own figures (``figure_s``, ``chunk_ms_p99``, ...).

The job repeats until ``--seconds`` have passed, and at least as often as
the workload asks (twice for price-eval, else once); the median is
reported.  Set-up runs two to five times, as ``--seconds``
allows, and its median is reported.
Every run uses fresh directories under ``.perfbench_tmp/`` in the
checkout and removes them on exit.  The exit code is 0 only if every
correctness check passed.  ``--quick`` selects the shortened workloads the
benchmark's own tests use.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Single-threaded numerics, before anything imports NumPy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="shortened workload (tests)")
    return parser.parse_args(argv)


def _isolate(run_dir: Path) -> None:
    """Keep every write of the run inside ``run_dir``."""
    os.environ["REPRO_BENCH_JSON"] = str(run_dir / "BENCH_engine.json")
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    # An inherited REPRO_DISK_CACHE=0 would change what the jobs compute.
    os.environ["REPRO_DISK_CACHE"] = "1"
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [str(SRC), str(ROOT)]


def _stamp() -> Dict[str, Any]:
    """The machine and code a result was measured on."""
    import hashlib
    import platform

    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _time_setup(workload, run_dir: Path, seed: int, seconds: float) -> Tuple[List[float], Any]:
    """Time repeated set-ups; returns the times and the last set-up's state.

    One set-up is a fresh interpreter importing what the job needs (timed
    from here, start-up included) plus the workload's in-process
    preparation from a fresh directory and empty in-memory caches.  It runs
    at least twice and at most five times, stopping once ``seconds`` have
    gone into it: a cheap set-up gets five samples, the price-eval table
    warm-up two.
    """
    times: List[float] = []
    state = None
    while len(times) < 2 or (len(times) < 5 and sum(times) < seconds):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", workload.child_import], cwd=ROOT, check=True
        )
        state = workload.prepare(run_dir / f"setup-{len(times)}", seed)
        times.append(time.perf_counter() - start)
    return times, state


def _report(rows: List[Tuple[str, float, str]]) -> None:
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:.6g} {unit}")


def _run(args: argparse.Namespace, run_dir: Path) -> int:
    from perfbench import workloads
    from perfbench.layers import Census, Tracer, per_layer_metrics
    from perfbench.stats import median

    workload = workloads.make(args.workload, ROOT, quick=args.quick)
    if workload is None:
        print(
            f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    stamp = _stamp()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          + (" quick" if args.quick else ""))
    print("  stamp " + json.dumps(stamp, sort_keys=True))

    setup_times, state = _time_setup(workload, run_dir, args.seed, args.seconds)
    setup_s = median(setup_times)

    def job(rep: int, trace: bool):
        census = Census().install()
        tracer = Tracer().install() if trace else None
        try:
            outcome = workload.run(state, run_dir / f"job-{rep}")
        finally:
            if tracer is not None:
                tracer.uninstall()
            census.uninstall()
        counts = {"serve.records": 0, "serve.checkpoint.bytes": 0}
        counts.update(census.counts())
        counts.update(outcome.counts)
        return outcome, tracer, counts

    outcomes = []
    if args.trace:
        baseline, _, baseline_counts = job(0, trace=False)
        traced, tracer, counts = job(1, trace=True)
        outcomes = [baseline, traced]
        # Every count repeats exactly except the checkpoint size: a
        # checkpoint pickles the replay's wall-clock accumulator, so its
        # compressed size moves by a few bytes from run to run.
        differ = [name for name in counts if name != "serve.checkpoint.bytes"
                  and counts[name] != baseline_counts[name]]
        traced.checks.append(("traced counts equal untraced counts", not differ))
        for name in differ:
            print(f"  count differs: {name} traced={counts[name]} "
                  f"untraced={baseline_counts[name]}", file=sys.stderr)
        metrics = per_layer_metrics(
            tracer,
            counts,
            traced_wall=traced.wall_seconds,
            untraced_wall=baseline.wall_seconds,
            chunk_ms=traced.chunk_ms,
        )
        units = _per_layer_units()
        result_metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        started = time.perf_counter()
        while len(outcomes) < workload.min_jobs or time.perf_counter() - started < args.seconds:
            outcomes.append(job(len(outcomes), trace=False)[0])
        result_metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s": {"value": median([o.wall_seconds for o in outcomes]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    checks = [check for outcome in outcomes for check in outcome.checks]
    failed = [name for name, passed in checks if not passed]
    for name in failed[:20]:
        print(f"  FAILED: {name}", file=sys.stderr)

    print(f"  jobs timed: {len(outcomes)}; set-ups timed: {len(setup_times)}")
    rows = [(name, m["value"], m["unit"]) for name, m in result_metrics.items()]
    if args.trace:
        rows.append(("setup_s", setup_s, "s"))
    rows.append(("failed_frac", len(failed) / len(checks), "ratio"))
    _report(rows)
    print("  last job:")
    _report(outcomes[-1].detail)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": result_metrics,
    }))
    return 1 if failed else 0


def _per_layer_units() -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer"]
    return {metric["name"]: metric["unit"] for metric in declared}


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}; nothing to measure",
              file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    run_dir = tmp_root / f"run-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        _isolate(run_dir)
        return _run(args, run_dir)
    except Exception:  # report any failure as a failed run, never a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
