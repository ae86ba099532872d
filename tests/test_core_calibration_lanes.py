"""Batched calibration: stress points as independent vector-engine lanes.

A non-SMT calibration on the vector backend runs every (generator, level)
stress point as one machine of a single engine.  The machines of a fleet
never interact, so each point's tables must be bit-for-bit what a one-lane
engine running that point alone produces.
"""

import dataclasses

import pytest

from repro.core.calibration import (
    CalibrationScenario,
    Calibrator,
    calibrate_cached,
    clear_calibration_cache,
)
from repro.core.persistence import calibration_to_dict
from repro.experiments.config import one_per_core
from repro.experiments.harness import oracle_for, registry_for
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.engine import EngineConfig
from repro.workloads.registry import default_registry
from repro.workloads.traffic import GeneratorKind


def _point_entries(document, generator, level):
    """The parts of a ``calibration_to_dict`` document one stress point fills."""

    def at_point(row):
        return row["generator"] == generator and row["stress_level"] == level

    return {
        section: [row for row in document[section] if at_point(row)]
        for section in ("congestion_table", "performance_table", "reference_slowdowns")
    }


def test_batched_lanes_equal_one_lane_calibrations_bitwise():
    config = one_per_core()
    options = dict(
        stress_levels=config.calibration_levels,
        engine_config=EngineConfig(epoch_seconds=config.epoch_seconds),
        oracle=oracle_for(config),
        backend="vector",
    )
    registry = registry_for(config)
    scenario = config.calibration_scenario
    batched = calibration_to_dict(
        Calibrator(config.machine, registry, scenario, **options).calibrate()
    )
    for kind in batched["generators"]:
        for level in batched["stress_levels"]:
            alone = Calibrator(
                config.machine,
                registry,
                scenario,
                generators=(GeneratorKind(kind),),
                **{**options, "stress_levels": (level,)},
            ).calibrate()
            expected = _point_entries(batched, kind, level)
            assert all(expected.values())
            assert _point_entries(calibration_to_dict(alone), kind, level) == expected


def test_cache_key_covers_the_whole_scenario():
    """Same scenario name, different background co-runners: two results."""
    clear_calibration_cache()
    options = dict(registry=default_registry().scaled(0.1), stress_levels=(2,))
    idle = CalibrationScenario(
        name="x", function_thread_count=5, functions_per_thread=2, background_functions=0
    )
    busy = dataclasses.replace(idle, background_functions=5)
    first = calibrate_cached(CASCADE_LAKE_5218, idle, **options)
    second = calibrate_cached(CASCADE_LAKE_5218, busy, **options)
    assert second is not first
    direct = Calibrator(CASCADE_LAKE_5218, scenario=busy, backend="vector", **options)
    assert calibration_to_dict(second) == calibration_to_dict(direct.calibrate())
    clear_calibration_cache()


def test_backend_default_and_validation():
    clear_calibration_cache()
    options = dict(registry=default_registry().scaled(0.1), stress_levels=(2,))
    scenario = CalibrationScenario.dedicated(2)
    vector = calibrate_cached(CASCADE_LAKE_5218, scenario, **options)
    assert vector is calibrate_cached(CASCADE_LAKE_5218, scenario, backend="vector", **options)
    assert vector is not calibrate_cached(
        CASCADE_LAKE_5218, scenario, backend="scalar", **options
    )
    with pytest.raises(ValueError, match="SMT"):
        Calibrator(CASCADE_LAKE_5218, scenario=CalibrationScenario.smt(), backend="vector")
    with pytest.raises(ValueError, match="backend"):
        Calibrator(CASCADE_LAKE_5218, backend="quantum")
    clear_calibration_cache()
