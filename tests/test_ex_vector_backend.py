"""Harness-level vector-backend adapters: figure regression vs scalar.

Non-SMT price figures run on the vector engine; the scalar engine stays
the oracle.  These tests pin the vector backend to it — the fig02/fig14
headline metrics must match the scalar run within rtol=1e-9 (in practice
they are bit-identical), and every non-SMT price figure must render
byte-identically on both backends.
"""

import gc
import weakref

import pytest

from repro.core.sharing import measure_switching_curve
from repro.experiments.config import (
    PricingMethod,
    heavy_320,
    icelake_70,
    one_per_core,
    sharing_160,
    sharing_240_reused,
    smt_160,
    unfixed_frequency_160,
)
from repro.experiments.harness import (
    build_environment,
    price_evaluation_cached,
    price_figure_result,
    run_characterization,
    run_price_evaluation,
)
from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import VectorEngine
from repro.platform.engine import EngineConfig

RTOL = 1e-9


class TestBackendSelection:
    def test_unknown_backend_rejected(self, registry):
        with pytest.raises(ValueError):
            build_environment(one_per_core(), registry.test_functions(), backend="quantum")

    def test_smt_rejected_on_vector(self, registry):
        with pytest.raises(ValueError, match="SMT"):
            build_environment(smt_160(), registry.test_functions(), backend="vector")

    def test_vector_environment_built(self, registry):
        config = one_per_core(
            name="vec-env", total_functions=4, eval_physical_cores=4, repetitions=1
        )
        engine, group = build_environment(
            config, registry.test_functions()[:4], backend="vector"
        )
        assert isinstance(engine, VectorEngine)
        assert not group.done


@pytest.mark.slow
class TestFigureRegression:
    def test_fig02_headline_matches_scalar(self):
        """Figure 2 (characterization) headline metrics at rtol=1e-9."""
        config = one_per_core()  # the exact fig02 configuration
        scalar = run_characterization(config)
        vector = run_characterization(config, backend="vector")
        assert vector.gmean_total_slowdown == pytest.approx(
            scalar.gmean_total_slowdown, rel=RTOL
        )
        assert vector.max_total_slowdown == pytest.approx(
            scalar.max_total_slowdown, rel=RTOL
        )
        for s_fn, v_fn in zip(scalar.functions, vector.functions):
            assert s_fn.function == v_fn.function
            assert v_fn.total_slowdown == pytest.approx(s_fn.total_slowdown, rel=RTOL)
            assert v_fn.private_slowdown == pytest.approx(
                s_fn.private_slowdown, rel=RTOL
            )
            assert v_fn.shared_slowdown == pytest.approx(s_fn.shared_slowdown, rel=RTOL)

    def test_fig14_switching_curve_matches_scalar(self):
        """Figure 14 (T_private inflation) points at rtol=1e-9."""
        counts = (1, 2, 6, 10)
        scalar = measure_switching_curve(
            CASCADE_LAKE_5218, counts, engine_config=EngineConfig()
        )
        vector = measure_switching_curve(
            CASCADE_LAKE_5218, counts, engine_config=EngineConfig(), backend="vector"
        )
        assert len(scalar) == len(vector)
        for s_point, v_point in zip(scalar, vector):
            assert s_point.functions_per_thread == v_point.functions_per_thread
            assert v_point.t_private_inflation == pytest.approx(
                s_point.t_private_inflation, rel=RTOL
            )

    def test_price_evaluation_matches_scalar_with_temporal_sharing(self):
        """A shared (Method 2) price evaluation agrees across backends."""
        config = sharing_160(
            PricingMethod.METHOD2,
            name="vec-share-quick",
            total_functions=20,
            eval_physical_cores=4,
            functions_per_thread=5,
            repetitions=1,
            registry_scale=0.2,
            calibration_levels=(4, 12),
        )
        scalar = run_price_evaluation(config)
        vector = run_price_evaluation(config, backend="vector")
        assert vector.average_litmus_discount == pytest.approx(
            scalar.average_litmus_discount, rel=RTOL
        )
        for s_row, v_row in zip(scalar.rows, vector.rows):
            assert s_row.function == v_row.function
            assert v_row.litmus_normalized_price == pytest.approx(
                s_row.litmus_normalized_price, rel=RTOL
            )
            assert v_row.actual_shared_slowdown == pytest.approx(
                s_row.actual_shared_slowdown, rel=RTOL
            )


class TestPriceEvaluationCached:
    def test_smt_config_routes_to_scalar(self):
        """The vector engine rejects SMT, so the default must pick scalar."""
        config = smt_160(
            name="smt-route-quick",
            total_functions=16,
            eval_physical_cores=2,
            functions_per_thread=4,
            calibration_levels=(4, 12),
        ).quick(registry_scale=0.1)
        result = price_evaluation_cached(config)
        assert result is price_evaluation_cached(config, backend="scalar")

    def test_cache_key_covers_the_whole_config(self):
        """Same name, different calibration levels: two separate results."""
        base = dict(
            name="k",
            total_functions=8,
            eval_physical_cores=8,
            repetitions=1,
            registry_scale=0.1,
        )
        first = price_evaluation_cached(one_per_core(calibration_levels=(4, 10), **base))
        second_config = one_per_core(calibration_levels=(4, 14), **base)
        second = price_evaluation_cached(second_config)
        assert second is not first
        assert second == run_price_evaluation(second_config, backend="vector")


def test_finished_vector_environment_is_freed_without_gc(registry):
    """No reference cycle keeps a finished vector run alive until a gen-2 GC."""
    config = one_per_core(
        name="vec-free", total_functions=4, eval_physical_cores=4, repetitions=1
    )
    specs = [spec.scaled(0.05) for spec in registry.test_functions()[:4]]
    gc.disable()
    try:
        engine, group = build_environment(config, specs, backend="vector")
        assert engine.run_until(lambda eng: group.done, max_seconds=config.max_seconds)
        ref = weakref.ref(engine)
        del engine, group
        assert ref() is None
    finally:
        gc.enable()


#: Every non-SMT price configuration behind a committed figure.
_NON_SMT_PRICE_CONFIGS = {
    "one_per_core": one_per_core,
    "sharing_160_method1": lambda: sharing_160(PricingMethod.METHOD1),
    "sharing_160_method2": lambda: sharing_160(PricingMethod.METHOD2),
    "heavy_320": heavy_320,
    "unfixed_frequency_160": unfixed_frequency_160,
    "icelake_70": icelake_70,
    "sharing_240_reused": sharing_240_reused,
}


@pytest.mark.slow
@pytest.mark.parametrize("factory", _NON_SMT_PRICE_CONFIGS.values(), ids=_NON_SMT_PRICE_CONFIGS)
def test_price_figure_renders_identically_on_scalar_and_vector(factory):
    """The scalar oracle and the vector engine the figures use render alike.

    Raw doubles may differ in the last ulp, so the comparison is on the
    rendered figure text, which is what ``results/*.txt`` holds.
    """
    config = factory()
    renders = {
        backend: price_figure_result(
            config.name, "differential", price_evaluation_cached(config, backend=backend)
        ).render()
        for backend in ("scalar", "vector")
    }
    assert renders["vector"] == renders["scalar"]
