"""Deterministic work counters of the vector engine, pinned exactly.

Wall seconds on sub-second runs are mostly noise; these counts are not.
They lock in the pass structure of the engine — epochs stepped, contention
fixed-point iterations, water-fill passes and epoch-advance passes — so a
change that adds passes (or drops some that mattered) shows up here.
Results themselves are byte-checked elsewhere; a change that moves these
counts on purpose updates them together with its measurement.
"""

import dataclasses

from repro.core.calibration import CalibrationScenario, Calibrator
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import VectorEngine
from repro.platform.batch.sweep import FleetDrive
from repro.scenarios import compile_spec, load_preset
from repro.workloads.registry import default_registry
from repro.workloads.traffic import GeneratorKind

PINNED = ("epochs", "fixed_point_iterations", "water_fill_passes", "advance_passes")


def _pinned(stats):
    counts = dataclasses.asdict(stats)
    return {name: counts[name] for name in PINNED}


def test_smoke_preset_sweep_work_counts():
    drive = FleetDrive(compile_spec(load_preset("smoke")).sweep())
    drive.step()
    assert _pinned(drive.engine.stats) == {
        "epochs": 250,
        "fixed_point_iterations": 500,
        "water_fill_passes": 764,
        "advance_passes": 482,
    }


def test_one_lane_vector_calibration_work_counts(monkeypatch):
    engines = []
    init = VectorEngine.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(VectorEngine, "__init__", recording_init)
    scenario = CalibrationScenario(
        name="lane", function_thread_count=5, functions_per_thread=2, background_functions=0
    )
    Calibrator(
        CASCADE_LAKE_5218,
        default_registry().scaled(0.1),
        scenario,
        generators=(GeneratorKind.CT,),
        stress_levels=(2,),
        backend="vector",
    ).calibrate()
    assert len(engines) == 1
    # The CT generator's capped lanes make most fixed-point iterations
    # take two or more water-fill passes.
    assert _pinned(engines[0].stats) == {
        "epochs": 164,
        "fixed_point_iterations": 328,
        "water_fill_passes": 670,
        "advance_passes": 186,
    }
