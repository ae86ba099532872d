"""Span IDs: unique across forked workers, independent of global ``random``."""

import multiprocessing
import os
import random

import pytest

from repro.obs.trace import Tracer, _new_id


def _ids(count):
    return [_new_id() for _ in range(count)]


def test_ids_are_64_bit_hex():
    for span_id in _ids(50):
        assert len(span_id) == 16
        int(span_id, 16)


def test_ids_leave_the_global_random_state_alone():
    random.seed(1234)
    expected = random.random()
    random.seed(1234)
    tracer = Tracer()
    tracer.finish(tracer.start("root"), root=True, emit=False)
    _ids(10)
    assert random.random() == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_workers_draw_distinct_ids():
    with multiprocessing.get_context("fork").Pool(2) as pool:
        batches = pool.map(_ids, [100, 100])
    ids = [span_id for batch in batches for span_id in batch] + _ids(100)
    assert len(set(ids)) == len(ids)
