"""``VectorEngine.set_frequency_scale``: validate every index, then mutate."""

import pytest

from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import VectorEngine


def test_bad_index_leaves_every_machine_unscaled():
    engine = VectorEngine(CASCADE_LAKE_5218, machines=2)
    with pytest.raises(ValueError, match="machine index 5 out of range"):
        engine.set_frequency_scale([0, 5], 0.5)
    assert engine._freq_scale is None


def test_bad_index_rejected_on_a_healthy_fleet_restore():
    engine = VectorEngine(CASCADE_LAKE_5218, machines=2)
    with pytest.raises(ValueError, match="machine index 7 out of range"):
        engine.set_frequency_scale(7, 1.0)


def test_bad_index_leaves_a_throttled_fleet_unchanged():
    engine = VectorEngine(CASCADE_LAKE_5218, machines=3)
    engine.set_frequency_scale(1, 0.5)
    with pytest.raises(ValueError):
        engine.set_frequency_scale((0, 2, -1), 0.25)
    assert engine._freq_scale.tolist() == [1.0, 0.5, 1.0]
    engine.set_frequency_scale(range(3), 1.0)
    assert engine._freq_scale is None
