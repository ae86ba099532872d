"""Scalar-oracle differential test for the batched (vector) calibration.

The figure path calibrates every non-SMT scenario on the vector engine,
all stress points at once.  The scalar engine stays the oracle: for each
of the three non-SMT calibration identities the figures use, the two
backends' tables must agree at rtol=1e-9, and the figures built on them
(fig05 shows the tables, fig16 and fig19 price with them) must render
byte-identically.  Raw doubles may differ in the last ulp, so figures are
compared as rendered text, never as floats.
"""

import functools

import pytest

from repro.core import calibration as calibration_module
from repro.core.persistence import calibration_to_dict
from repro.experiments import harness
from repro.experiments.config import PricingMethod, icelake_70, one_per_core, sharing_160
from repro.experiments.runner import resolve_runner

pytestmark = pytest.mark.slow

RTOL = 1e-9
BACKENDS = ("scalar", "vector")

#: The three non-SMT calibration identities behind the committed figures.
_IDENTITIES = {
    "dedicated-14-cascade": one_per_core,
    "shared-5x10-cascade": lambda: sharing_160(PricingMethod.METHOD2),
    "shared-5x10-icelake": icelake_70,
}

#: One figure per identity, in the same order.
_FIGURES = ("fig05", "fig16", "fig19")


def _force_backend(monkeypatch, backend):
    """Route every figure-path calibration to ``backend``."""
    monkeypatch.setattr(
        harness,
        "calibrate_cached",
        functools.partial(calibration_module.calibrate_cached, backend=backend),
    )


def _leaves(value, path=""):
    """Flatten a ``calibration_to_dict`` document into (path, leaf) pairs."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}/{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


@pytest.mark.parametrize("factory", _IDENTITIES.values(), ids=_IDENTITIES)
def test_vector_tables_match_scalar(factory, monkeypatch):
    config = factory()
    results = {}
    for backend in BACKENDS:
        _force_backend(monkeypatch, backend)
        results[backend] = harness.calibration_for(config)
    assert results["vector"] is not results["scalar"]
    leaves = {backend: dict(_leaves(calibration_to_dict(results[backend]))) for backend in BACKENDS}
    assert leaves["vector"].keys() == leaves["scalar"].keys()
    for path, expected in leaves["scalar"].items():
        actual = leaves["vector"][path]
        if isinstance(expected, float):
            assert actual == pytest.approx(expected, rel=RTOL), path
        else:
            assert actual == expected, path


@pytest.mark.parametrize("figure", _FIGURES)
def test_figure_renders_identically_from_scalar_and_vector_tables(figure, monkeypatch):
    # Price evaluations are cached per config, not per calibration backend:
    # keep the disk cache out and start each backend's render afresh.
    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    renders = {}
    for backend in BACKENDS:
        _force_backend(monkeypatch, backend)
        harness.clear_experiment_caches()
        renders[backend] = resolve_runner(figure)().render()
    harness.clear_experiment_caches()
    assert renders["vector"] == renders["scalar"]
