"""One fleet drive behind batch sweeps and streaming replay.

The batch vector sweep and :class:`~repro.serve.StreamReplay` step the same
:class:`~repro.platform.batch.sweep.FleetDrive`, so besides results they
must emit the same telemetry: per-epoch series points and progress
payloads differ only in the backend label.  Also covers the checkpoint
version gate and the spec rule that keeps meter-fault seeding unambiguous.
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios import (
    SpecError,
    chunk_plan,
    compile_spec,
    expand_grid,
    load_spec_or_preset,
    parse_spec_text,
)
from repro.serve import CheckpointError, StreamReplay, load_checkpoint, save_checkpoint


class Recorder:
    """A progress callback that also takes per-epoch series points."""

    def __init__(self) -> None:
        self.payloads = []
        self.points = []

    def __call__(self, payload) -> None:
        self.payloads.append(dict(payload))

    def epoch_sample(self, point) -> None:
        self.points.append(point)


@pytest.fixture(scope="module")
def chaos():
    return compile_spec(load_spec_or_preset("chaos-smoke"))


@pytest.fixture(scope="module")
def batch_telemetry(chaos):
    recorder = Recorder()
    chaos.sweep(meter=True).run("vector", progress=recorder)
    return recorder


@pytest.mark.parametrize("chunk_epochs", (1, 7))
def test_stream_emits_the_batch_telemetry(chaos, batch_telemetry, chunk_epochs):
    recorder = Recorder()
    replay = StreamReplay(chaos)
    replay.set_progress(recorder)
    for chunk in chunk_plan(replay.epochs_total, chunk_epochs):
        replay.ingest(chunk)
    replay.drain()

    assert len(batch_telemetry.points) == 250
    assert recorder.points == batch_telemetry.points

    def without_backend(payloads):
        return [{k: v for k, v in p.items() if k != "backend"} for p in payloads]

    assert without_backend(recorder.payloads) == without_backend(batch_telemetry.payloads)
    assert {p["backend"] for p in recorder.payloads} == {"stream"}
    assert {p["backend"] for p in batch_telemetry.payloads} == {"vector"}
    for payloads in (recorder.payloads, batch_telemetry.payloads):
        assert [p["done"] for p in payloads].count(True) == 1
        assert payloads[-1]["done"]


def test_previous_checkpoint_version_is_refused(chaos, tmp_path):
    replay = StreamReplay(chaos)
    path = save_checkpoint(tmp_path / "c.ckpt.json", replay)
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["checkpoint_version"] = 1
    path.write_text(json.dumps(envelope), encoding="utf-8")
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path)


def test_version_2_checkpoint_is_refused(chaos, tmp_path):
    """Version 2 predates the packed vector-engine record: its lanes that
    never ran carry no solo penalty, so restoring it would move results."""
    replay = StreamReplay(chaos)
    path = save_checkpoint(tmp_path / "c.ckpt.json", replay)
    envelope = json.loads(path.read_text(encoding="utf-8"))
    envelope["checkpoint_version"] = 2
    path.write_text(json.dumps(envelope), encoding="utf-8")
    with pytest.raises(CheckpointError, match="version 2"):
        load_checkpoint(path)


def _spec_with_meter_faults(fault_toml: str):
    return parse_spec_text(
        'name = "meters"\n'
        "[sweep]\nhorizon_seconds = 0.2\nregistry_scale = 0.05\n"
        '[grid]\nmixes = ["all"]\nmachines = [1, 2]\ncores_per_machine = 3\n'
        + fault_toml
    )


@pytest.mark.parametrize("fault_type", ("meter-drop", "meter-dup"))
def test_two_meter_faults_of_one_type_on_a_scenario_are_rejected(fault_type):
    spec = _spec_with_meter_faults(
        f'[[faults]]\ntype = "churn-spike"\ncount = 1\n'
        f'[[faults]]\ntype = "{fault_type}"\nprobability = 0.5\n'
        f'[[faults]]\ntype = "{fault_type}"\nprobability = 0.2\nscenario = "all-m2-*"\n'
    )
    with pytest.raises(SpecError) as excinfo:
        expand_grid(spec)
    message = str(excinfo.value)
    assert "faults[1]" in message and "faults[2]" in message
    assert "all-m2-c1" in message
    with pytest.raises(SpecError, match=r"faults\[1\] and faults\[2\]"):
        compile_spec(spec)


def test_one_meter_fault_of_each_type_per_scenario_is_fine():
    spec = _spec_with_meter_faults(
        '[[faults]]\ntype = "meter-drop"\nprobability = 0.5\nscenario = "all-m1-*"\n'
        '[[faults]]\ntype = "meter-drop"\nprobability = 0.2\nscenario = "all-m2-*"\n'
        '[[faults]]\ntype = "meter-dup"\nprobability = 0.2\n'
    )
    by_name = {cell.name: [f.type for f in cell.faults] for cell in expand_grid(spec)}
    assert by_name == {
        "all-m1-c1": ["meter-drop", "meter-dup"],
        "all-m2-c1": ["meter-drop", "meter-dup"],
    }
