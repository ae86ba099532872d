"""Golden bitwise values of the vector engine, pinned by ``repr``.

The scalar-oracle differential tests are slow-marked, so the fast unit
tier would not see a last-bit change in the vector epoch.  This module
pins exact float values from three short runs instead:

* the ``smoke`` and ``chaos-smoke`` preset drives (metered): every
  scenario's totals, billing ledger and fault accounting;
* the one-lane CT level-2 vector calibration (see
  ``tests/test_pf_vector_work_counters.py``), as ``calibration_to_dict``;
* the probe-window snapshots of a two-machine materialized engine whose
  startups finish mid-epoch with co-runners on the same machine.

A change that moves any of these on purpose regenerates the golden file
(``PYTHONPATH=src python tests/test_pf_vector_golden.py``) and says why.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.core.calibration import CalibrationScenario, Calibrator
from repro.core.persistence import calibration_to_dict
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import VectorEngine
from repro.platform.batch.sweep import FleetDrive
from repro.scenarios import compile_spec, load_preset
from repro.workloads.registry import default_registry
from repro.workloads.synthetic import WorkloadMixer
from repro.workloads.traffic import GeneratorKind

GOLDEN = Path(__file__).resolve().parent / "data" / "vector_golden.json"

RESULT_FIELDS = (
    "submitted",
    "completed",
    "instructions",
    "cycles",
    "stall_cycles",
    "l3_misses",
    "billing",
    "fault_stats",
)


def drive_values(preset: str) -> Dict[str, str]:
    drive = FleetDrive(compile_spec(load_preset(preset)).sweep(meter=True))
    drive.step()
    return {
        f"{result.name}.{field}": repr(getattr(result, field))
        for result in drive.results()
        for field in RESULT_FIELDS
    }


def calibration_values() -> Dict[str, str]:
    scenario = CalibrationScenario(
        name="lane", function_thread_count=5, functions_per_thread=2, background_functions=0
    )
    result = Calibrator(
        CASCADE_LAKE_5218,
        default_registry().scaled(0.1),
        scenario,
        generators=(GeneratorKind.CT,),
        stress_levels=(2,),
        backend="vector",
    ).calibrate()
    return {"calibration": repr(calibration_to_dict(result))}


def startup_values() -> Dict[str, str]:
    mixer = WorkloadMixer(default_registry().scaled(0.05).all(), seed=11)
    engine = VectorEngine(CASCADE_LAKE_5218, machines=2)
    handles = [
        engine.submit(mixer.next(), machine=machine, thread_id=thread)
        for machine in range(2)
        for thread in range(8)
        for _ in range(3)
    ]
    for _ in range(300):
        engine.run_epoch()
    # Every probe window closed while co-runners on its machine were still
    # mid-epoch, so each snapshot is a runnable-order prefix fold.
    assert all(handle.startup_counters is not None for handle in handles)
    values = {
        f"startup.{position}": repr(
            (
                handle.spec.abbreviation,
                handle.finish_time,
                handle.counters.snapshot(),
                handle.startup_counters,
                handle.machine_counters_at_start,
                handle.machine_counters_at_startup_end,
            )
        )
        for position, handle in enumerate(handles)
    }
    values["startup.machine_counters"] = repr(
        [engine.machine_counters(machine) for machine in range(2)]
    )
    return values


CASES = {
    "smoke": lambda: drive_values("smoke"),
    "chaos-smoke": lambda: drive_values("chaos-smoke"),
    "calibration": calibration_values,
    "startup": startup_values,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_vector_engine_values_are_bit_identical(case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert CASES[case]() == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({case: build() for case, build in sorted(CASES.items())}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
