#!/usr/bin/env python3
"""Microseconds per vector-engine epoch on the fleet-stream shape.

Builds perfbench's seeded ``fleet-stream`` spec (two mixes, every fault
type, metered, 8 cores per machine) at several fleet sizes, steps its
batch :class:`~repro.platform.batch.sweep.FleetDrive` to the horizon, and
prints the median wall time per epoch over ``REPEATS`` runs of seed
``SEED``.  Drive set-up is not timed; finish listeners (churn
resubmission, metering) are, as in the real sweep.

Usage (from the repository root)::

    python tools/epoch_cost.py [--src DIR]

``--src`` measures another checkout's ``src`` directory (say, of the
parent commit) with this checkout's spec generator, so two trees compare
on one machine; alternate the runs, since a shared host drifts.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (lanes, machines per mix, co-location, horizon seconds).
SHAPES = ((64, 2, 2, 2.0), (320, 4, 5, 2.0), (1280, 16, 5, 0.6), (5120, 64, 5, 0.2))
#: Runs per shape (the median is printed) and the spec seed.
REPEATS = 3
SEED = 1


def epoch_microseconds(machines: int, colocation: int, horizon: float) -> float:
    from perfbench.workloads import FleetShape, fleet_spec_document
    from repro.platform.batch.sweep import FleetDrive
    from repro.scenarios import compile_spec, parse_spec

    shape = FleetShape(horizon_seconds=horizon, machines=machines, colocation=colocation)
    compiled = compile_spec(parse_spec(fleet_spec_document(SEED, shape), origin="epoch_cost"))
    drive = FleetDrive(compiled.sweep(meter=True))
    start = time.perf_counter()
    drive.step()
    return 1e6 * (time.perf_counter() - start) / drive.engine.stats.epochs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to time")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT)]
    for lanes, machines, colocation, horizon in SHAPES:
        samples = [epoch_microseconds(machines, colocation, horizon) for _ in range(REPEATS)]
        print(f"{lanes:5d} lanes: {statistics.median(samples):8.1f} us/epoch")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
