"""Property-based tests: chunk partitions never change the streamed ledger.

The streaming contract is stronger than "some chunk sizes work": *any*
partition of the epoch axis — ragged, single-epoch, one-big-chunk — must
leave the final per-tenant ledgers and per-scenario counters bit-identical
to an unchunked replay of the same spec.  Hypothesis searches partition
space for a counterexample; the reference is computed once per spec.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.scenarios import (
    chunk_plan,
    compile_spec,
    load_spec_or_preset,
    parse_spec_text,
    partition_plan,
)

# Two cheap specs (~60 epochs, one scenario each): a healthy fleet and one
# carrying an engine fault plus a meter fault, so boundary actions and
# metering injection both sit inside the partition search space.
HEALTHY = """
name = "props-stream"
[sweep]
horizon_seconds = 0.06
registry_scale = 0.05
[grid]
mixes = ["all"]
machines = [1]
colocations = [2]
cores_per_machine = 4
"""

FAULTY = """
name = "props-stream-faulty"
[sweep]
horizon_seconds = 0.06
registry_scale = 0.05
[grid]
mixes = ["all"]
machines = [1]
colocations = [2]
cores_per_machine = 4
[[faults]]
type = "noisy-neighbor"
scenario = "all-m1-c2"
start_seconds = 0.02
duration_seconds = 0.02
count = 1
[[faults]]
type = "meter-dup"
scenario = "all-m1-c2"
probability = 0.3
"""

_COMPILED = {}
_REFERENCE = {}


def _compiled(text):
    if text not in _COMPILED:
        _COMPILED[text] = compile_spec(parse_spec_text(text))
    return _COMPILED[text]


def _reference(text):
    """Final scenario tuple of a one-chunk replay (== the batch result)."""
    if text not in _REFERENCE:
        from repro.serve import StreamReplay

        replay = StreamReplay(_compiled(text))
        total = replay.epochs_total
        for chunk in partition_plan(total, (total,)):
            replay.ingest(chunk)
        replay.drain()
        _REFERENCE[text] = replay.result().scenarios
    return _REFERENCE[text]


def _epochs_total(text):
    from repro.serve import StreamReplay

    return StreamReplay(_compiled(text)).epochs_total


@st.composite
def partitions(draw, total):
    """A random ordered list of positive sizes summing to ``total``."""
    sizes = []
    remaining = total
    while remaining > 0:
        size = draw(st.integers(min_value=1, max_value=remaining))
        sizes.append(size)
        remaining -= size
    return tuple(sizes)


def _assert_partition_matches(text, sizes):
    from repro.serve import StreamReplay

    replay = StreamReplay(_compiled(text))
    for chunk in partition_plan(replay.epochs_total, sizes):
        replay.ingest(chunk)
    replay.drain()
    assert replay.finished
    for streamed, expected in zip(replay.result().scenarios, _reference(text)):
        assert streamed.submitted == expected.submitted
        assert streamed.completed == expected.completed
        assert streamed.instructions == expected.instructions
        assert streamed.cycles == expected.cycles
        assert streamed.billing == expected.billing
        assert streamed.fault_stats == expected.fault_stats


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_partition_yields_identical_ledgers(data):
    text = HEALTHY
    sizes = data.draw(partitions(_epochs_total(text)))
    _assert_partition_matches(text, sizes)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_partition_yields_identical_ledgers_under_faults(data):
    text = FAULTY
    sizes = data.draw(partitions(_epochs_total(text)))
    _assert_partition_matches(text, sizes)


@pytest.mark.parametrize("text", (HEALTHY, FAULTY), ids=("healthy", "faulty"))
def test_single_epoch_partition_matches(text):
    total = _epochs_total(text)
    _assert_partition_matches(text, (1,) * total)


# --------------------------------------------------------------------- #
# Checkpoint at any epoch
# --------------------------------------------------------------------- #
#: Fields ``python -m repro stream --verify`` compares, stream vs batch.
VERIFY_FIELDS = (
    "submitted",
    "completed",
    "instructions",
    "cycles",
    "stall_cycles",
    "l3_misses",
    "billing",
    "fault_stats",
)

#: chaos-smoke's fault boundaries (0.05, 0.1 and 0.2 s) and its horizon, in
#: epochs.  A replay paused exactly there has reached the segment's target
#: but not yet applied the boundary's actions (bursts, throttles).
CHAOS_BOUNDARY_EPOCHS = (50, 100, 200, 250)

_CHAOS = {}


def _chaos():
    """chaos-smoke compiled, and its metered batch vector result."""
    if not _CHAOS:
        compiled = compile_spec(load_spec_or_preset("chaos-smoke"))
        _CHAOS["compiled"] = compiled
        _CHAOS["batch"] = compiled.sweep(meter=True).run("vector")
    return _CHAOS["compiled"], _CHAOS["batch"]


@settings(max_examples=25, deadline=None)
@given(
    epoch=st.one_of(st.sampled_from(CHAOS_BOUNDARY_EPOCHS), st.integers(0, 250)),
    first_chunk=st.integers(1, 64),
    second_chunk=st.integers(1, 64),
)
def test_checkpoint_at_any_epoch_resumes_bit_exact(epoch, first_chunk, second_chunk):
    from repro.serve import StreamReplay, load_checkpoint, save_checkpoint

    assume(first_chunk != second_chunk)
    compiled, batch = _chaos()
    replay = StreamReplay(compiled)
    if epoch:
        for chunk in chunk_plan(epoch, first_chunk):
            replay.ingest(chunk)
    assert replay.epochs_done == epoch
    assert not replay.finished  # even at the horizon, its segment is still open

    with tempfile.TemporaryDirectory() as directory:
        path = save_checkpoint(Path(directory) / "c.ckpt.json", replay)
        restored = load_checkpoint(path, expect_fingerprint=replay.fingerprint)
    assert restored.epochs_done == epoch
    remaining = restored.epochs_total - epoch
    if remaining:
        for chunk in chunk_plan(remaining, second_chunk):
            restored.ingest(chunk)
    restored.drain()
    assert restored.finished

    result = restored.result()
    assert [s.name for s in result.scenarios] == [s.name for s in batch.scenarios]
    for streamed, expected in zip(result.scenarios, batch.scenarios):
        for name in VERIFY_FIELDS:
            assert getattr(streamed, name) == getattr(expected, name), name

