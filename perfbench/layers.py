"""Per-layer accounting, installed from the benchmark's side.

Two probes, both attached by patching the program's public entry points
for the duration of one timed job and restored afterwards:

* :class:`Census` reads the program's own work counters
  (:class:`~repro.platform.engine.FastPathStats` of every scalar engine,
  :class:`~repro.platform.batch.VectorEngineStats` of every vector engine).
  It only hooks engine construction and checkpoint restore, so it adds no
  cost per epoch; it runs with tracing off as well, which is how a traced
  run proves its counts equal the untraced run's.
* :class:`Tracer` times every call into the layers named in
  ``BENCHMARK.json``.  It keeps one in-memory stack of open spans; a span's
  self time is its duration minus the time of the traced spans directly
  below it.  Nothing is written while the job runs.

Layer names follow the program's modules (``core.calibration``,
``platform.engine``, ``serve.ingest``, ...); see ``perfbench/README.md``
for which end-to-end metric each should move.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Tuple

from perfbench.stats import percentile

# Engine runs are attributed to the innermost of these enclosing layers;
# a scalar engine run below none of them is the price evaluation run.
_ENGINE_CONTEXTS = ("core.calibration", "platform.oracle")


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def replace(self, owner: Any, name: str, build: Callable[[Any], Any]) -> None:
        had = name in vars(owner)
        original = getattr(owner, name, None)
        self._saved.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, build(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, value, had = self._saved.pop()
            if had:
                setattr(owner, name, value)
            else:
                delattr(owner, name)


def _stats_dict(stats: Any) -> Dict[str, int]:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


class Census:
    """Sums the work counters of every engine a job creates or restores."""

    def __init__(self) -> None:
        # (stats object, its values when this process first saw it).  Only
        # the stats objects are held, never the engines.
        self._scalar: List[Tuple[Any, Dict[str, int]]] = []
        self._vector: List[Tuple[Any, Dict[str, int]]] = []
        self._patches = _Patches()

    def install(self) -> "Census":
        from repro.platform.batch.vector_engine import VectorEngine
        from repro.platform.engine import SimulationEngine

        scalar, vector = self._scalar, self._vector

        def scalar_init(original):
            @functools.wraps(original)
            def __init__(engine, *args, **kwargs):
                original(engine, *args, **kwargs)
                scalar.append((engine.fast_path_stats, _stats_dict(engine.fast_path_stats)))

            return __init__

        def vector_init(original):
            @functools.wraps(original)
            def __init__(engine, *args, **kwargs):
                original(engine, *args, **kwargs)
                vector.append((engine.stats, _stats_dict(engine.stats)))

            return __init__

        def vector_setstate(_original):
            # VectorEngine pickles through its __dict__; a restored engine
            # carries the counters of the run it was saved from, which this
            # process already counted, so they form its baseline.
            def __setstate__(engine, state):
                engine.__dict__.update(state)
                vector.append((engine.stats, _stats_dict(engine.stats)))

            return __setstate__

        self._patches.replace(SimulationEngine, "__init__", scalar_init)
        self._patches.replace(VectorEngine, "__init__", vector_init)
        self._patches.replace(VectorEngine, "__setstate__", vector_setstate)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    @staticmethod
    def _sum(entries: List[Tuple[Any, Dict[str, int]]], names: Tuple[str, ...]) -> Dict[str, int]:
        totals = dict.fromkeys(names, 0)
        for stats, baseline in entries:
            for name in names:
                totals[name] += getattr(stats, name) - baseline[name]
        return totals

    def counts(self) -> Dict[str, int]:
        scalar = self._sum(
            self._scalar,
            ("stepped_epochs", "span_epochs", "fixed_point_evaluations", "fixed_point_reuses"),
        )
        vector = self._sum(
            self._vector,
            ("epochs", "fixed_point_iterations", "advance_passes", "submissions", "completions"),
        )
        out = {f"platform.engine.{name}": value for name, value in scalar.items()}
        out.update({f"platform.batch.{name}": value for name, value in vector.items()})
        return out


@dataclass
class LayerTotals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


class Tracer:
    """Times calls into the named layers; see the module docstring."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerTotals] = {}
        self.top_level_seconds = 0.0
        # Engine runs split by the layer that asked for them.
        self.engine_seconds: Dict[str, float] = {}
        self.engine_epochs: Dict[str, int] = {}
        self.engine_runs: Dict[str, int] = {}
        self.cache_hits = 0
        self._stack: List[List[Any]] = []  # [layer, child seconds]
        self._patches = _Patches()

    # -- span bookkeeping ------------------------------------------------ #
    def _context(self) -> str:
        for layer, _ in reversed(self._stack):
            if layer in _ENGINE_CONTEXTS:
                return layer
        return "evaluation"

    def _timed(self, layer: str, call: Callable[[], Any]) -> Tuple[Any, float]:
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            totals = self.layers.setdefault(layer, LayerTotals())
            totals.calls += 1
            totals.seconds += elapsed
            totals.self_seconds += elapsed - frame[1]
            if self._stack:
                self._stack[-1][1] += elapsed
            else:
                self.top_level_seconds += elapsed
        return result, elapsed

    def _wrap(self, layer: str) -> Callable[[Any], Any]:
        def build(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                return self._timed(layer, lambda: original(*args, **kwargs))[0]

            return traced

        return build

    # -- installation ---------------------------------------------------- #
    def install(self) -> "Tracer":
        from repro import diskcache
        from repro.core.calibration import Calibrator
        from repro.core.pricing import LitmusPricingEngine
        from repro.platform.batch.sweep import FleetSweep
        from repro.platform.batch.vector_engine import VectorEngine
        from repro.platform.engine import SimulationEngine
        from repro.platform.metering import MeteringLedger
        from repro.platform.oracle import SoloOracle
        from repro.serve import checkpoint
        from repro.serve.replay import StreamReplay

        patch = self._patches.replace
        patch(Calibrator, "calibrate", self._wrap("core.calibration"))
        patch(SoloOracle, "profile", self._wrap("platform.oracle"))
        patch(LitmusPricingEngine, "quote", self._wrap("core.pricing.quote"))
        patch(MeteringLedger, "observe", self._wrap("platform.metering.observe"))
        patch(FleetSweep, "run", self._wrap("platform.batch.sweep"))
        patch(VectorEngine, "run_epoch", self._wrap("platform.batch.run_epoch"))
        patch(VectorEngine, "run_until", self._wrap("platform.batch.run_until"))
        patch(VectorEngine, "submit", self._wrap("platform.batch.submit"))
        patch(StreamReplay, "__init__", self._wrap("serve.replay"))
        patch(StreamReplay, "ingest", self._wrap("serve.ingest"))
        patch(StreamReplay, "drain", self._wrap("serve.replay"))
        patch(StreamReplay, "result", self._wrap("serve.replay"))
        patch(checkpoint, "save_checkpoint", self._wrap("serve.checkpoint.save"))
        patch(checkpoint, "load_checkpoint", self._wrap("serve.checkpoint.load"))
        patch(diskcache, "store", self._wrap("diskcache.store"))

        def load(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                payload = self._timed("diskcache.load", lambda: original(*args, **kwargs))[0]
                self.cache_hits += payload is not None
                return payload

            return traced

        patch(diskcache, "load", load)

        def run_until(original):
            @functools.wraps(original)
            def traced(engine, *args, **kwargs):
                context = self._context()
                stats = engine.fast_path_stats
                before = stats.total_epochs
                result, elapsed = self._timed(
                    "platform.engine.run_until", lambda: original(engine, *args, **kwargs)
                )
                self.engine_seconds[context] = self.engine_seconds.get(context, 0.0) + elapsed
                self.engine_epochs[context] = (
                    self.engine_epochs.get(context, 0) + stats.total_epochs - before
                )
                self.engine_runs[context] = self.engine_runs.get(context, 0) + 1
                return result

            return traced

        patch(SimulationEngine, "run_until", run_until)
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    # -- results --------------------------------------------------------- #
    def totals(self, layer: str) -> LayerTotals:
        return self.layers.get(layer, LayerTotals())


#: Layers reported as ``<layer>.calls`` and ``<layer>.s``.
_CALL_LAYERS = (
    "core.calibration",
    "core.pricing.quote",
    "platform.batch.run_epoch",
    "platform.batch.run_until",
    "platform.batch.submit",
    "platform.batch.sweep",
    "platform.metering.observe",
    "serve.ingest",
)


def per_layer_metrics(
    tracer: Tracer,
    counts: Dict[str, int],
    *,
    traced_wall: float,
    untraced_wall: float,
    chunk_ms: List[float],
) -> Dict[str, float]:
    """Flatten one traced job into the ``per_layer`` names of BENCHMARK.json."""
    t = tracer.totals
    scalar_epochs = counts["platform.engine.stepped_epochs"] + counts["platform.engine.span_epochs"]
    evaluations = counts["platform.engine.fixed_point_evaluations"]
    reuses = counts["platform.engine.fixed_point_reuses"]
    batch_epochs = counts["platform.batch.epochs"]
    metrics: Dict[str, float] = {
        "core.calibration.self_s": t("core.calibration").self_seconds,
        "core.calibration.stress_runs": tracer.engine_runs.get("core.calibration", 0),
        "platform.engine.calibration_s": tracer.engine_seconds.get("core.calibration", 0.0),
        "platform.engine.calibration_epochs": tracer.engine_epochs.get("core.calibration", 0),
        "platform.engine.evaluation_s": tracer.engine_seconds.get("evaluation", 0.0),
        "platform.engine.evaluation_epochs": tracer.engine_epochs.get("evaluation", 0),
        "platform.engine.reuse_ratio": reuses / (evaluations + reuses) if evaluations + reuses else 0.0,
        "platform.engine.us_per_epoch": (
            1e6 * t("platform.engine.run_until").seconds / scalar_epochs if scalar_epochs else 0.0
        ),
        "platform.batch.us_per_epoch": (
            1e6 * t("platform.batch.run_epoch").seconds / batch_epochs if batch_epochs else 0.0
        ),
        "serve.ingest.self_s": t("serve.ingest").self_seconds,
        "serve.ingest.ms_p50": percentile(chunk_ms, 50) if chunk_ms else 0.0,
        "serve.ingest.ms_p99": percentile(chunk_ms, 99) if chunk_ms else 0.0,
        "serve.replay.s": t("serve.replay").seconds,
        "serve.checkpoint.save_s": t("serve.checkpoint.save").seconds,
        "serve.checkpoint.load_s": t("serve.checkpoint.load").seconds,
        "platform.oracle.profile_calls": t("platform.oracle").calls,
        "platform.oracle.solo_runs": tracer.engine_runs.get("platform.oracle", 0),
        "platform.oracle.s": t("platform.oracle").seconds,
        "diskcache.load_calls": t("diskcache.load").calls,
        "diskcache.hits": tracer.cache_hits,
        "diskcache.store_calls": t("diskcache.store").calls,
        "diskcache.s": t("diskcache.load").seconds + t("diskcache.store").seconds,
        "obs.attributed_frac": tracer.top_level_seconds / traced_wall,
        "obs.trace_overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
    }
    for layer in _CALL_LAYERS:
        metrics[f"{layer}.calls"] = t(layer).calls
        metrics[f"{layer}.s"] = t(layer).seconds
    metrics.update(counts)
    return metrics
