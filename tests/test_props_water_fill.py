"""Property tests: the vector water-fill against ``SharedCacheModel``.

``VectorEngine._water_fill`` runs the scalar water-fill of every machine in
one pass loop, so for any fleet — machines interleaved in runnable order,
idle lanes (zero rate or zero need) and caps that cascade over several
passes — its hit fractions must equal ``SharedCacheModel.allocate`` run
machine by machine, bit for bit.  Its utility curve relies on
``np.float_power`` being libm ``pow`` element by element; the last tests
fail loudly on a NumPy build where that stops holding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.cache import CacheDemand, SharedCacheModel
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import VectorEngine

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CAPACITY = CASCADE_LAKE_5218.l3.size_mb
EXPONENT = VectorEngine(CASCADE_LAKE_5218)._utility_exponent

#: Rates spread over many magnitudes so a few heavy lanes cap early and
#: light lanes inherit the surplus pass after pass.
rates = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 1e3, 1e6, 1e9]),
    st.floats(min_value=1e-3, max_value=5e9),
)
#: Needs from zero up to the whole cache, with repeats to force ties.
needs = st.one_of(
    st.just(0.0),
    st.sampled_from([0.1, 0.5, 2.0, CAPACITY / 4, CAPACITY]),
    st.floats(min_value=0.0, max_value=CAPACITY),
)
lanes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),  # machine
        rates,
        needs,
        st.floats(min_value=0.0, max_value=1.0),  # solo hit fraction
    ),
    min_size=1,
    max_size=40,
)


def _scalar_hits(machines, m_of, rate, need, solo):
    """``SharedCacheModel.allocate`` run per machine, in lane order."""
    model = SharedCacheModel(CAPACITY, EXPONENT)
    hits = [None] * len(m_of)
    for machine in range(machines):
        positions = [i for i, m in enumerate(m_of) if m == machine]
        allocations = model.allocate(
            [CacheDemand(i, rate[i], need[i], solo[i]) for i in positions]
        )
        for i in positions:
            hits[i] = allocations[i].hit_fraction
    return hits


def _vector_hits(machines, m_of, rate, need, solo):
    engine = VectorEngine(CASCADE_LAKE_5218, machines=machines)
    result = engine._water_fill(
        np.array(rate), np.array(need), np.array(solo), np.array(m_of, dtype=np.int64)
    )
    return result.tolist(), engine.stats.water_fill_passes


@given(st.integers(min_value=1, max_value=5), lanes)
@settings(max_examples=300, deadline=None)
def test_water_fill_equals_scalar_model_per_machine(machines, raw):
    m_of = [machine % machines for machine, _, _, _ in raw]
    rate = [r for _, r, _, _ in raw]
    need = [n for _, _, n, _ in raw]
    solo = [h for _, _, _, h in raw]
    vector, passes = _vector_hits(machines, m_of, rate, need, solo)
    assert vector == _scalar_hits(machines, m_of, rate, need, solo)
    # One pass at least per busy fleet, and each later pass caps a lane.
    active = sum(r > 0.0 and n > 0.0 for r, n in zip(rate, need))
    assert (passes == 0) == (active == 0)
    assert passes <= active


def test_capped_grants_come_off_capacity_in_runnable_order():
    """``((C - a) - b)`` differs from ``C - (a + b)``, and the hits show it.

    Two heavy lanes per machine cap at 0.1 MB in the first pass; the light
    lane takes the rest of the cache in the second.  Its coverage is the
    remaining capacity over the whole cache, so folding the grants in any
    other order than the scalar loop's changes its hit fraction.
    """
    grant = 0.1
    sequential = (CAPACITY - grant) - grant
    together = CAPACITY - (grant + grant)
    assert sequential != together
    assert math.pow(sequential / CAPACITY, EXPONENT) != math.pow(
        together / CAPACITY, EXPONENT
    )
    # Two machines, interleaved lane by lane.
    m_of = [0, 1, 0, 1, 0, 1]
    rate = [1e9, 1e9, 1e9, 1e9, 1.0, 1.0]
    need = [grant, grant, grant, grant, CAPACITY, CAPACITY]
    solo = [0.9, 0.8, 0.7, 0.6, 1.0, 0.5]
    vector, passes = _vector_hits(2, m_of, rate, need, solo)
    assert passes == 2
    assert vector == _scalar_hits(2, m_of, rate, need, solo)
    assert vector[4] == math.pow(sequential / CAPACITY, EXPONENT)
    assert vector[5] == 0.5 * math.pow(sequential / CAPACITY, EXPONENT)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=64),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
@settings(max_examples=300, deadline=None)
def test_float_power_is_libm_pow(coverage, exponent):
    powered = np.float_power(np.array(coverage), exponent)
    expected = [math.pow(c, exponent) for c in coverage]
    assert [v.hex() for v in powered.tolist()] == [v.hex() for v in expected]


@pytest.mark.parametrize("exponent", [0.35, 0.40, 0.42])
def test_float_power_is_libm_pow_on_long_arrays(exponent):
    """Long arrays at the shipped exponents, edges included: 0, 1,
    subnormals and values just below 1."""
    rng = np.random.default_rng(7)
    coverage = np.concatenate(
        (
            rng.random(50_000),
            1.0 - rng.random(5_000) * 1e-9,
            rng.random(1_000) * 1e-308,
            [0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)],
        )
    )
    powered = np.float_power(coverage, exponent)
    expected = np.array([math.pow(c, exponent) for c in coverage.tolist()])
    assert np.array_equal(powered.view(np.int64), expected.view(np.int64))
