"""NumPy-vectorized fleet simulation backend.

The scalar :class:`repro.platform.engine.SimulationEngine` advances one
machine invocation-by-invocation in pure Python; that is the right tool for
the bit-exact committed figures, but it caps out far below the fleet scales
the roadmap asks for.  :class:`VectorEngine` represents an entire fleet —
many independent sharing domains ("machines") and every invocation running
on them — as NumPy arrays and evaluates the contention fixed point plus the
epoch advancement for *all* of them in one vectorized pass per epoch.

Semantics mirror the scalar engine's slow path operation for operation:

* every epoch, each runnable invocation receives ``dt / occupancy`` of its
  hardware thread (temporal sharing) times the temporal-switching
  multiplier,
* the contention fixed point iterates ``fixed_point_iterations`` times,
  warm-started from the previous epoch's penalties, with the cache
  water-fill, ring and memory queueing models applied per machine,
* invocations advance through their phase lists, splitting consumed cycles
  into private and L2-miss-stalled cycles and accumulating per-invocation
  and per-machine counters,
* startup (Litmus probe) windows and completions are detected at the same
  epoch boundaries, and completions fire finish listeners so the scalar
  drivers (``RepeatingSubmitter``, ``WorkQueueDriver``, ``ChurnManager``)
  can be reused unchanged — on one machine through
  :meth:`VectorEngine.machine_view`, which confines a driver's
  submissions and completions to that machine.

A finished invocation's handle goes to the finish listeners and is then
released; the engine keeps it (in :attr:`VectorEngine.completed`) only
when nothing listens on its machine.

Per-invocation arithmetic keeps the scalar implementation's operand order,
and per-machine reductions use ``np.bincount`` (a sequential left-to-right
fold per bin, like the scalar sums), so vector and scalar runs agree to
float rounding noise — the property tests assert agreement at rtol=1e-9.
The backend is *not* bit-exact (summation orders differ at a few points by
design), yet the non-SMT price figures run on it: their rendered
``results/*.txt`` are byte-identical to the scalar engine's, which a
differential test keeps checking.  So does every non-SMT calibration: each
(generator, level) stress point runs as one machine of a single engine
(see :mod:`repro.core.calibration`).

Limitations (gated with explicit errors): SMT sharing domains and
event-log recording are not supported; randomness must live outside the
engine, exactly as with the scalar engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.hardware.frequency import FrequencyGovernor, FrequencyPolicy
from repro.hardware.contention import ContentionParameters
from repro.hardware.pmu import CounterSnapshot
from repro.hardware.topology import MachineSpec
from repro.platform.invoker import Invocation
from repro.platform.sandbox import Sandbox
from repro.platform.scheduler import SwitchingOverheadModel
from repro.workloads.function import FunctionSpec

#: Counter fields shared by the per-invocation and per-machine accumulators.
_COUNTER_FIELDS = (
    "cycles",
    "instructions",
    "stall_cycles_l2_miss",
    "l2_misses",
    "l3_misses",
    "context_switches",
)

#: Listener called when an invocation completes.  Receives the materialized
#: :class:`Invocation` handle (or the bare invocation index when the engine
#: was built with ``materialize_handles=False``) and the engine — or, for a
#: listener added through a machine view, that view.
VectorFinishListener = Callable[[object, "VectorEngine"], None]


@dataclass(frozen=True)
class VectorEngineConfig:
    """Time-stepping parameters (mirrors the scalar ``EngineConfig``)."""

    epoch_seconds: float = 1e-3
    fixed_point_iterations: int = 2

    def __post_init__(self) -> None:
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if self.fixed_point_iterations < 1:
            raise ValueError("fixed_point_iterations must be >= 1")


@dataclass
class VectorEngineStats:
    """Observability counters for the vectorized backend."""

    epochs: int = 0
    fixed_point_iterations: int = 0
    advance_passes: int = 0
    #: Water-fill passes that computed shares (at least one per fixed-point
    #: iteration with an active lane; one more per round of capped lanes).
    water_fill_passes: int = 0
    submissions: int = 0
    completions: int = 0


class _SpecTable:
    """Padded per-phase profile arrays for every distinct function spec."""

    def __init__(self) -> None:
        self._index: Dict[FunctionSpec, int] = {}
        self._by_id: Dict[int, int] = {}
        #: Keeps every id-cached spec object alive so ids cannot recycle.
        self._keepalive: List[FunctionSpec] = []
        self.specs: List[FunctionSpec] = []
        # Built lazily into dense arrays on demand.
        self._dirty = True
        self.phase_instructions: np.ndarray = np.zeros((0, 1))
        self.cpi_base: np.ndarray = np.zeros((0, 1))
        self.l2_mpki: np.ndarray = np.zeros((0, 1))
        self.working_set_mb: np.ndarray = np.zeros((0, 1))
        self.solo_l3_hit: np.ndarray = np.zeros((0, 1))
        self.mlp: np.ndarray = np.zeros((0, 1))
        self.phase_count: np.ndarray = np.zeros(0, dtype=np.int64)
        self.total_instructions: np.ndarray = np.zeros(0)
        self.startup_instructions: np.ndarray = np.zeros(0)
        self.is_traffic_generator: np.ndarray = np.zeros(0, dtype=bool)

    def intern(self, spec: FunctionSpec) -> int:
        # Keyed by object identity first: churn drivers resubmit the same
        # spec objects over and over, and hashing a FunctionSpec walks its
        # whole phase list.
        index = self._by_id.get(id(spec))
        if index is not None:
            return index
        index = self._index.get(spec)
        if index is None:
            if not spec.phases:
                raise ValueError(
                    f"function {spec.name!r} has no phases; the vector engine "
                    "requires at least one"
                )
            index = len(self.specs)
            self._index[spec] = index
            self.specs.append(spec)
            self._dirty = True
        self._by_id[id(spec)] = index
        self._keepalive.append(spec)
        return index

    def __getstate__(self) -> Dict[str, object]:
        # ``_by_id`` keys on ``id(spec)``; after unpickling every spec is a
        # new object, so stale ids could alias fresh ones and corrupt the
        # interning.  Drop the cache — ``intern`` repopulates it lazily via
        # the hash-based ``_index`` lookup (same indices, same arrays).
        state = self.__dict__.copy()
        state["_by_id"] = {}
        return state

    def rebuild(self) -> None:
        if not self._dirty:
            return
        count = len(self.specs)
        width = max(len(spec.phases) for spec in self.specs)
        # Padding uses 1.0 so padded slots can never divide by zero; they
        # are always masked out by the ``finished`` check before use.
        self.phase_instructions = np.full((count, width), 1.0)
        self.cpi_base = np.ones((count, width))
        self.l2_mpki = np.zeros((count, width))
        self.working_set_mb = np.zeros((count, width))
        self.solo_l3_hit = np.zeros((count, width))
        self.mlp = np.ones((count, width))
        self.phase_count = np.zeros(count, dtype=np.int64)
        self.total_instructions = np.zeros(count)
        self.startup_instructions = np.zeros(count)
        self.is_traffic_generator = np.zeros(count, dtype=bool)
        for s, spec in enumerate(self.specs):
            phases = spec.phases
            self.phase_count[s] = len(phases)
            self.total_instructions[s] = spec.total_instructions
            self.startup_instructions[s] = spec.startup_instructions
            self.is_traffic_generator[s] = spec.is_traffic_generator
            for p, phase in enumerate(phases):
                profile = phase.profile
                self.phase_instructions[s, p] = phase.instructions
                self.cpi_base[s, p] = profile.cpi_base
                self.l2_mpki[s, p] = profile.l2_mpki
                self.working_set_mb[s, p] = profile.working_set_mb
                self.solo_l3_hit[s, p] = profile.solo_l3_hit_fraction
                self.mlp[s, p] = profile.mlp
        # Stacked views so one fancy-index gathers every profile field.
        self.epoch_stack = np.stack(
            (
                self.cpi_base,
                self.l2_mpki,
                self.working_set_mb,
                self.solo_l3_hit,
                self.mlp,
            )
        )
        self.advance_stack = np.stack(
            (self.phase_instructions, self.cpi_base, self.l2_mpki, self.mlp)
        )
        self._dirty = False


class _VectorThreadView:
    """Occupancy view of one hardware thread (duck-types ``HardwareThread``)."""

    __slots__ = ("_engine", "_gthread")

    def __init__(self, engine: "VectorEngine", gthread: int) -> None:
        self._engine = engine
        self._gthread = gthread

    @property
    def occupancy(self) -> int:
        return len(self._engine._queues[self._gthread])

    @property
    def is_busy(self) -> bool:
        return self.occupancy > 0


class _MachineView:
    """One machine of a :class:`VectorEngine`, seen as a one-machine engine.

    The scalar drivers (``RepeatingSubmitter``, ``WorkQueueDriver``,
    ``ChurnManager``) use four things of an engine: :meth:`submit`,
    ``cpu.thread(t).occupancy``, :attr:`time_seconds` and
    :meth:`add_finish_listener`.  A view offers exactly those for one
    machine, with machine-local thread ids, and is its own ``cpu``.  Its
    finish listeners receive the view and only this machine's completions,
    so a driver attached through it — and everything it resubmits from its
    listener — stays on this machine.
    """

    __slots__ = ("_engine", "_index")

    def __init__(self, engine: "VectorEngine", index: int) -> None:
        if not 0 <= index < engine.machines:
            raise ValueError(f"machine {index} out of range")
        self._engine = engine
        self._index = index

    @property
    def machine(self) -> MachineSpec:
        return self._engine.machine

    @property
    def cpu(self) -> "_MachineView":
        return self

    @property
    def time_seconds(self) -> float:
        return self._engine.time_seconds

    def thread(self, thread_id: int) -> _VectorThreadView:
        threads = self._engine.threads_per_machine
        if not 0 <= thread_id < threads:
            raise KeyError(f"no hardware thread with id {thread_id}")
        return _VectorThreadView(self._engine, self._index * threads + thread_id)

    def submit(
        self,
        spec: FunctionSpec,
        *,
        thread_id: Optional[int] = None,
        tags: Optional[Dict[str, str]] = None,
    ):
        return self._engine.submit(
            spec, machine=self._index, thread_id=thread_id, tags=tags
        )

    def add_finish_listener(self, listener: VectorFinishListener) -> None:
        self._engine._machine_listeners.setdefault(self._index, []).append(listener)


class VectorEngine:
    """Batched epoch engine over a fleet of independent machines.

    Construction parameters: ``machine`` describes the hardware every
    fleet machine shares; ``machines`` is the fleet size (each machine is
    an independent sharing domain); ``threads_per_machine`` defaults to
    the machine's core count (SMT domains are rejected — scalar-only);
    ``materialize_handles`` chooses between full
    :class:`~repro.platform.invoker.Invocation` handles (scalar-adapter
    compatible) and bare integer indices (cheaper at fleet scale, columns
    recycled after completion); ``initial_capacity`` pre-sizes the arrays.

    Drive it like the scalar engine: :meth:`submit` invocations, attach
    :meth:`add_finish_listener` callbacks, advance with :meth:`run_for` /
    :meth:`run_until`, read results via :meth:`machine_counters`,
    :attr:`completed`, and :attr:`stats`.  :meth:`machine_view` hands the
    scalar drivers one machine as if it were a whole engine.
    """

    def __init__(
        self,
        machine: MachineSpec,
        *,
        machines: int = 1,
        threads_per_machine: Optional[int] = None,
        config: Optional[VectorEngineConfig] = None,
        switching_overhead: Optional[SwitchingOverheadModel] = None,
        contention_parameters: Optional[ContentionParameters] = None,
        frequency_policy: FrequencyPolicy = FrequencyPolicy.FIXED,
        materialize_handles: bool = True,
        initial_capacity: int = 1024,
    ) -> None:
        if machines < 1:
            raise ValueError("machines must be >= 1")
        self._machine = machine
        self._machines = machines
        self._threads_per_machine = (
            machine.cores if threads_per_machine is None else threads_per_machine
        )
        if self._threads_per_machine < 1:
            raise ValueError("threads_per_machine must be >= 1")
        self._config = config or VectorEngineConfig()
        self._switching = switching_overhead or SwitchingOverheadModel()
        self._parameters = contention_parameters or ContentionParameters()
        self._frequency_policy = frequency_policy
        self._materialize = materialize_handles
        self._time = 0.0
        self._stats = VectorEngineStats()
        self._specs = _SpecTable()
        self._finish_listeners: List[VectorFinishListener] = []
        #: Listeners added through a machine view, by machine index.
        self._machine_listeners: Dict[int, List[VectorFinishListener]] = {}

        total_threads = machines * self._threads_per_machine
        self._queues: List[List[int]] = [[] for _ in range(total_threads)]
        self._order: np.ndarray = np.zeros(0, dtype=np.int64)
        self._order_dirty = True

        # Derived machine constants.
        self._capacity_mb = machine.l3.size_mb
        self._utility_exponent = self._parameters.cache_utility_exponent
        self._line_size = float(machine.line_size_bytes)
        self._l3_latency = machine.l3.latency_cycles
        self._memory_latency = machine.memory_latency_cycles
        self._ring_peak = machine.ring_peak_accesses_per_us * 1e6
        self._memory_peak = machine.memory_bandwidth_gbs * 1e9
        self._max_util = self._parameters.max_utilization
        self._ring_q = self._parameters.ring_queueing_coefficient
        self._memory_q = self._parameters.memory_queueing_coefficient
        self._pressure = self._parameters.private_pressure_sensitivity
        self._switch_factors: Dict[int, float] = {}
        self._switch_table: Optional[np.ndarray] = None
        self._governor = FrequencyGovernor(machine=machine, policy=frequency_policy)
        self._turbo_cache: Dict[int, float] = {}
        self._fixed_frequency = np.full(machines, machine.base_frequency_ghz * 1e9)
        # Fault-injection hook: per-machine frequency multiplier.  ``None``
        # (every machine healthy) keeps the fault-free path untouched.
        self._freq_scale: Optional[np.ndarray] = None

        # Per-machine accumulators (the machine-wide PMU view).
        m = machines
        self._m_counters = {field: np.zeros(m) for field in _COUNTER_FIELDS}
        self._m_elapsed = np.zeros(m)

        # Per-invocation state arrays, grown by doubling.  In
        # non-materialized mode finished columns go onto a free list and are
        # reused, so a long churn sweep's footprint is bounded by the peak
        # *active* fleet, not by total completions; materialized handles keep
        # unique invocation ids for the scalar drivers, so there columns are
        # append-only (figure-scale runs are bounded anyway).
        self._count = 0
        self._next_sandbox_id = 0
        self._free: List[int] = []
        self._grow(max(initial_capacity, 16))
        self._handles: List[Optional[Invocation]] = []
        self._tags: List[Optional[Dict[str, str]]] = []
        self._completed: List[object] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def machine(self) -> MachineSpec:
        """The hardware description every machine of the fleet shares."""
        return self._machine

    @property
    def machines(self) -> int:
        """Number of independent sharing domains in the fleet."""
        return self._machines

    @property
    def threads_per_machine(self) -> int:
        """Hardware threads hosting functions on each machine."""
        return self._threads_per_machine

    @property
    def config(self) -> VectorEngineConfig:
        """Time-stepping parameters (epoch length, fixed-point iterations)."""
        return self._config

    @property
    def time_seconds(self) -> float:
        """Simulated time elapsed since construction."""
        return self._time

    @property
    def stats(self) -> VectorEngineStats:
        """Observability counters (epochs, submissions, completions, …)."""
        return self._stats

    @property
    def cpu(self) -> _MachineView:
        """Machine 0's view, for drivers attached to the engine itself.

        Views are built per access rather than stored: a stored view would
        point back at the engine and keep every finished run alive until a
        generation-2 collection.
        """
        return _MachineView(self, 0)

    def machine_view(self, machine: int) -> _MachineView:
        """One machine as a one-machine engine, for the scalar drivers.

        A driver attached through the view submits, reads occupancy and
        hears completions on that machine only; see :class:`_MachineView`.
        """
        return _MachineView(self, machine)

    @property
    def invocation_count(self) -> int:
        """High-water mark of concurrently tracked invocations.

        Total submissions live in ``stats.submissions``; in
        non-materialized mode finished columns are recycled, so this stays
        bounded by the peak active fleet.
        """
        return self._count

    @property
    def active_count(self) -> int:
        """Invocations currently running anywhere in the fleet."""
        return int(np.count_nonzero(self.active[: self._count]))

    @property
    def completed(self) -> List[object]:
        """Finished ``Invocation`` handles that no finish listener received.

        A completion on a machine with finish listeners (engine-wide or
        attached through its view) is handed to them and then released:
        the drivers keep the handles they need, so a long churn run does
        not hold every finished handle.  Non-materialized engines recycle
        finished columns and count completions in ``stats.completions``
        instead of retaining them.
        """
        return list(self._completed)

    def machine_counters(self, machine: int = 0) -> CounterSnapshot:
        """Machine-wide counter snapshot (the Litmus-test view)."""
        return CounterSnapshot(
            cycles=float(self._m_counters["cycles"][machine]),
            instructions=float(self._m_counters["instructions"][machine]),
            stall_cycles_l2_miss=float(
                self._m_counters["stall_cycles_l2_miss"][machine]
            ),
            l2_misses=float(self._m_counters["l2_misses"][machine]),
            l3_misses=float(self._m_counters["l3_misses"][machine]),
            context_switches=float(self._m_counters["context_switches"][machine]),
            elapsed_seconds=float(self._m_elapsed[machine]),
        )

    @property
    def fleet_shared_stall_fraction(self) -> float:
        """Fleet-wide shared-resource stall share: stall cycles / cycles.

        A cheap read over the already-maintained counter arrays — the
        per-epoch telemetry samplers use it (repro.obs.series), so it
        must never mutate state.
        """
        cycles = float(self._m_counters["cycles"].sum())
        if cycles <= 0.0:
            return 0.0
        return float(self._m_counters["stall_cycles_l2_miss"].sum()) / cycles

    def set_frequency_scale(self, machines, scale: float) -> None:
        """Scale selected machines' operating frequency from now on.

        The ``freq-throttle`` fault hook: ``machines`` is one machine index
        or an iterable of them, ``scale`` the multiplier applied on top of
        the governed (fixed or turbo) frequency.  Restoring every machine
        to 1.0 drops the scale array entirely, so a healthy fleet pays
        nothing — and unthrottled machines are untouched even while others
        are throttled (``x * 1.0`` is exact in IEEE-754).
        """
        if scale <= 0:
            raise ValueError("frequency scale must be positive")
        machines = (machines,) if isinstance(machines, int) else tuple(machines)
        for machine in machines:
            if not 0 <= machine < self._machines:
                raise ValueError(f"machine index {machine} out of range")
        if self._freq_scale is None:
            if scale == 1.0:
                return
            self._freq_scale = np.ones(self._machines)
        self._freq_scale[list(machines)] = scale
        if (self._freq_scale == 1.0).all():
            self._freq_scale = None

    def set_contention_parameters(
        self, parameters: Optional[ContentionParameters]
    ) -> None:
        """Apply new contention-model coefficients from now on.

        The hardware-drift hook (see :mod:`repro.calibrate.drift`), the
        vector twin of :meth:`SimulationEngine.set_contention_parameters`:
        the fleet keeps its state but every subsequent epoch's fixed point
        evaluates under the new coefficients.  The derived per-epoch
        constants are recomputed here; nothing else in the engine bakes
        them in, so both backends stay in lockstep when drift is applied
        at the same segment boundary.
        """
        self._parameters = parameters or ContentionParameters()
        self._utility_exponent = self._parameters.cache_utility_exponent
        self._max_util = self._parameters.max_utilization
        self._ring_q = self._parameters.ring_queueing_coefficient
        self._memory_q = self._parameters.memory_queueing_coefficient
        self._pressure = self._parameters.private_pressure_sensitivity

    def invocation_spec(self, index: int) -> FunctionSpec:
        """The function spec of a tracked invocation, by index.

        Valid while the invocation's column is live — including inside
        finish listeners, which fire before the column is recycled.
        """
        return self._specs.specs[int(self.spec_idx[index])]

    def invocation_elapsed_seconds(self, index: int) -> float:
        """Seconds a tracked invocation has occupied its processor.

        The metering pipeline's per-completion reading: same validity
        window as :meth:`invocation_spec`.
        """
        return float(self._ctr[6, index])

    def add_finish_listener(self, listener: VectorFinishListener) -> None:
        """Register a completion callback (handle-or-index, engine).

        The listener hears every machine's completions.  Listeners may
        :meth:`submit` replacements from inside the callback — the churn
        pattern fleet sweeps rely on.  To confine a driver to one machine,
        attach it through :meth:`machine_view` instead.
        """
        self._finish_listeners.append(listener)

    def thread_occupancy(self, machine: int, thread_id: int) -> int:
        """Invocations co-located on one machine-local hardware thread."""
        return len(self._queues[machine * self._threads_per_machine + thread_id])

    def __getstate__(self) -> Dict[str, object]:
        # Finish listeners are arbitrary closures over driver state and are
        # not picklable in general; whoever checkpoints an engine owns
        # re-attaching its listeners after restore (see ``repro.serve``).
        state = self.__dict__.copy()
        state["_finish_listeners"] = []
        state["_machine_listeners"] = {}
        return state

    # ------------------------------------------------------------------ #
    # Storage management
    # ------------------------------------------------------------------ #
    def _grow(self, capacity: int) -> None:
        def extend(array: Optional[np.ndarray], dtype=float) -> np.ndarray:
            fresh = np.zeros(capacity, dtype=dtype)
            if array is not None:
                fresh[: array.shape[0]] = array
            return fresh

        def extend2(array: Optional[np.ndarray], rows: int) -> np.ndarray:
            fresh = np.zeros((rows, capacity))
            if array is not None:
                fresh[:, : array.shape[1]] = array
            return fresh

        self.spec_idx = extend(getattr(self, "spec_idx", None), np.int64)
        self.machine_of = extend(getattr(self, "machine_of", None), np.int64)
        self.gthread = extend(getattr(self, "gthread", None), np.int64)
        self.active = extend(getattr(self, "active", None), bool)
        self.phase_index = extend(getattr(self, "phase_index", None), np.int64)
        self.into_phase = extend(getattr(self, "into_phase", None))
        self.retired_total = extend(getattr(self, "retired_total", None))
        #: Rows: cycles, instructions, stall, l2, l3, switches, elapsed.
        self._ctr = extend2(getattr(self, "_ctr", None), 7)
        self.occ_weighted = extend(getattr(self, "occ_weighted", None))
        self.occ_weight = extend(getattr(self, "occ_weight", None))
        #: Rows: l3_hit_fraction, l3_hit_latency, memory_latency, inflation.
        self._pen = extend2(getattr(self, "_pen", None), 4)
        self.has_penalty = extend(getattr(self, "has_penalty", None), bool)
        self.startup_recorded = extend(getattr(self, "startup_recorded", None), bool)
        self.watch_startup = extend(getattr(self, "watch_startup", None), bool)
        self.submit_time = extend(getattr(self, "submit_time", None))
        self.finish_time = extend(getattr(self, "finish_time", None))
        self._capacity = capacity

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _least_loaded_thread(self, machine: int) -> int:
        base = machine * self._threads_per_machine
        best = 0
        best_occ: Optional[int] = None
        for local in range(self._threads_per_machine):
            occ = len(self._queues[base + local])
            if best_occ is None or occ < best_occ:
                best = local
                best_occ = occ
        return best

    def submit(
        self,
        spec: FunctionSpec,
        *,
        machine: int = 0,
        thread_id: Optional[int] = None,
        tags: Optional[Dict[str, str]] = None,
    ):
        """Start one invocation of ``spec``; returns its handle (or index).

        ``thread_id`` is machine-local; when omitted the least-occupied
        thread of the target machine hosts the invocation (the scalar
        ``LeastOccupancyScheduler`` rule).
        """
        if not 0 <= machine < self._machines:
            raise ValueError(f"machine {machine} out of range")
        if thread_id is None:
            thread_id = self._least_loaded_thread(machine)
        elif not 0 <= thread_id < self._threads_per_machine:
            raise ValueError(f"thread {thread_id} out of range")
        if self._free:
            index = self._free.pop()
            self._ctr[:, index] = 0.0
            self.occ_weighted[index] = 0.0
            self.occ_weight[index] = 0.0
        else:
            index = self._count
            if index >= self._capacity:
                self._grow(self._capacity * 2)
            self._count = index + 1
            self._handles.append(None)
            self._tags.append(None)

        spec_index = self._specs.intern(spec)
        gthread = machine * self._threads_per_machine + thread_id
        self.spec_idx[index] = spec_index
        self.machine_of[index] = machine
        self.gthread[index] = gthread
        self.active[index] = True
        self.phase_index[index] = 0
        self.into_phase[index] = 0.0
        self.retired_total[index] = 0.0
        self.has_penalty[index] = False
        self.startup_recorded[index] = False
        self.watch_startup[index] = not spec.is_traffic_generator
        self.submit_time[index] = self._time
        self._queues[gthread].append(index)
        self._order_dirty = True
        self._stats.submissions += 1

        if self._materialize:
            sandbox = Sandbox(
                sandbox_id=self._next_sandbox_id,
                memory_mb=spec.memory_mb,
                language=spec.language,
            )
            self._next_sandbox_id += 1
            handle = Invocation(
                invocation_id=index,
                spec=spec,
                sandbox=sandbox,
                submit_time=self._time,
                tags=dict(tags or {}),
            )
            handle.mark_started(thread_id, self._time)
            handle.machine_counters_at_start = self.machine_counters(machine)
            self._handles[index] = handle
            return handle
        self._tags[index] = dict(tags) if tags else None
        return index

    # ------------------------------------------------------------------ #
    # Time stepping
    # ------------------------------------------------------------------ #
    def run_for(self, seconds: float) -> None:
        """Advance the whole fleet by ``seconds`` of simulated time."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        target = self._time + seconds
        while self._time < target - 1e-12:
            self.run_epoch()

    def run_until(
        self, predicate: Callable[["VectorEngine"], bool], max_seconds: float
    ) -> bool:
        """Step epochs until ``predicate(engine)`` holds or time runs out."""
        if max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        deadline = self._time + max_seconds
        while self._time < deadline:
            if predicate(self):
                return True
            self.run_epoch()
        return predicate(self)

    def _runnable_order(self) -> np.ndarray:
        """Active invocation indices in (thread id, queue position) order.

        This is the order the scalar engine's ``_collect_runnable`` visits
        invocations in; per-machine reductions accumulate in this order so
        their floating-point folds match the scalar sums.
        """
        if self._order_dirty:
            order = [index for queue in self._queues for index in queue]
            self._order = np.array(order, dtype=np.int64)
            self._order_dirty = False
        return self._order

    def _switch_factor_table(self, max_occupancy: int) -> np.ndarray:
        """Switch factors for occupancies 0..max (``math.exp``-exact)."""
        table = self._switch_table
        if table is not None and table.size > max_occupancy:
            return table
        table = np.ones(max_occupancy + 1)
        for occ in range(1, max_occupancy + 1):
            factor = self._switch_factors.get(occ)
            if factor is None:
                factor = self._switching.factor(occ)
                self._switch_factors[occ] = factor
            table[occ] = factor
        self._switch_table = table
        return table

    def _frequency_hz(self, busy_threads: np.ndarray) -> np.ndarray:
        """Per-machine operating frequency, memoized per busy-thread count.

        Delegates to :class:`FrequencyGovernor` so the turbo curve has a
        single source of truth (and stays ``math.exp``-exact against the
        scalar engine).
        """
        if self._frequency_policy is FrequencyPolicy.FIXED:
            if self._freq_scale is not None:
                return self._fixed_frequency * self._freq_scale
            return self._fixed_frequency
        freqs = np.empty(self._machines)
        for m, busy in enumerate(busy_threads.tolist()):
            cached = self._turbo_cache.get(busy)
            if cached is None:
                cached = self._governor.frequency_hz(busy)
                self._turbo_cache[busy] = cached
            freqs[m] = cached
        if self._freq_scale is not None:
            freqs *= self._freq_scale
        return freqs

    def run_epoch(self) -> None:
        """Advance the whole fleet by one epoch."""
        self._stats.epochs += 1
        dt = self._config.epoch_seconds
        now = self._time + dt
        idx = self._runnable_order()
        if idx.size == 0:
            self._m_elapsed += dt
            self._time = now
            return
        self._specs.rebuild()
        specs = self._specs
        n = idx.size
        m_of = self.machine_of[idx]

        occ_per_thread = np.bincount(
            self.gthread[idx], minlength=self._machines * self._threads_per_machine
        )
        occ = occ_per_thread[self.gthread[idx]]
        busy = np.count_nonzero(
            occ_per_thread.reshape(self._machines, self._threads_per_machine), axis=1
        )
        frequency_hz = self._frequency_hz(busy)
        share = dt / occ
        multiplier = self._switch_factor_table(int(occ.max()))[occ]

        spec_i = self.spec_idx[idx]
        # Every runnable invocation is mid-execution, so its phase index is a
        # valid row of the spec table (finished ones left the queues).
        phase = self.phase_index[idx]
        cpi_base, l2_mpki, working_set, solo_hit, mlp = specs.epoch_stack[:, spec_i, phase]
        mpki_per_inst = l2_mpki / 1000.0
        frequency = frequency_hz[m_of]
        cycles_available = share * frequency
        remaining = np.maximum(
            specs.total_instructions[spec_i] - self.retired_total[idx], 0.0
        )
        need = np.minimum(working_set, self._capacity_mb)

        # ---------------- contention fixed point ---------------------- #
        hit_frac, hit_latency, mem_latency, inflation = self._pen[:, idx]
        has_pen = self.has_penalty[idx]
        all_pen = bool(has_pen.all())
        solo_stall = None
        if not all_pen:
            solo_stall = mpki_per_inst * (
                (solo_hit * self._l3_latency + (1.0 - solo_hit) * self._memory_latency)
                / mlp
            )
        for _ in range(self._config.fixed_point_iterations):
            self._stats.fixed_point_iterations += 1
            stall = mpki_per_inst * (
                (hit_frac * hit_latency + (1.0 - hit_frac) * mem_latency) / mlp
            )
            cpi_effective = cpi_base * inflation * multiplier + stall
            if not all_pen:
                stall = np.where(has_pen, stall, solo_stall)
                cpi_effective = np.where(
                    has_pen, cpi_effective, cpi_base * multiplier + stall
                )
            instructions = np.minimum(cycles_available / cpi_effective, remaining)
            rate = instructions * l2_mpki / 1000.0 / dt

            hit_frac = self._water_fill(rate, need, solo_hit, m_of)
            lookups = np.bincount(m_of, weights=rate, minlength=self._machines)
            dram_bytes = np.bincount(
                m_of,
                weights=rate * (1.0 - hit_frac) * self._line_size,
                minlength=self._machines,
            )
            ring_util = np.minimum(
                np.maximum(lookups / self._ring_peak, 0.0), self._max_util
            )
            bw_util = np.minimum(
                np.maximum(dram_bytes / self._memory_peak, 0.0), self._max_util
            )
            m_hit_latency = self._l3_latency * (
                1.0 + self._ring_q * ring_util / (1.0 - ring_util)
            )
            m_mem_latency = self._memory_latency * (
                1.0 + self._memory_q * bw_util / (1.0 - bw_util)
            )
            m_inflation = 1.0 + self._pressure * np.maximum(ring_util, bw_util)
            hit_latency = m_hit_latency[m_of]
            mem_latency = m_mem_latency[m_of]
            inflation = m_inflation[m_of]
            if not all_pen:
                all_pen = True
                has_pen = np.ones(n, dtype=bool)

        self._pen[:, idx] = (hit_frac, hit_latency, mem_latency, inflation)
        self.has_penalty[idx] = True

        # ---------------- epoch advancement --------------------------- #
        # The scalar advance recomputes ``share * frequency_hz``; the product
        # of the same two floats is bit-identical, so reuse the epoch's.
        budget = cycles_available.copy()
        phase_index = self.phase_index[idx].copy()
        into_phase = self.into_phase[idx].copy()
        retired_total = self.retired_total[idx].copy()
        watch = self.watch_startup[idx] & ~self.startup_recorded[idx]
        startup_instr = specs.startup_instructions[spec_i]
        phase_count = specs.phase_count[spec_i]
        stopped = np.zeros(n, dtype=bool)
        tot_cycles = np.zeros(n)
        tot_instr = np.zeros(n)
        tot_stall = np.zeros(n)
        tot_l2 = np.zeros(n)
        tot_l3 = np.zeros(n)
        hit_term = hit_frac * hit_latency + (1.0 - hit_frac) * mem_latency
        miss_fraction = 1.0 - hit_frac
        max_passes = int(specs.phase_count.max()) + 2
        for pass_no in range(max_passes):
            mask = (budget > 1.0) & (phase_index < phase_count) & ~stopped
            if pass_no == 0 and mask.all():
                # Every lane advances and no phase moved yet, so the
                # epoch-start profile gathers are still valid — no fancy
                # indexing, whole-array operations throughout.
                live = slice(None)
                p_instr = specs.phase_instructions[spec_i, phase]
                p_cpi = cpi_base
                p_mpki = l2_mpki
                stall = mpki_per_inst * (hit_term / mlp)
            else:
                live = np.nonzero(mask)[0]
                if live.size == 0:
                    break
                sp = spec_i[live]
                ph = phase_index[live]
                p_instr, p_cpi, p_mpki, p_mlp = specs.advance_stack[:, sp, ph]
                stall = (p_mpki / 1000.0) * (hit_term[live] / p_mlp)
            self._stats.advance_passes += 1
            cpi_effective = p_cpi * inflation[live] * multiplier[live] + stall
            possible = budget[live] / cpi_effective
            available = p_instr - into_phase[live]
            retired = np.minimum(possible, available)
            cycles = retired * cpi_effective
            tot_cycles[live] += cycles
            tot_instr[live] += retired
            tot_stall[live] += retired * stall
            l2 = retired * p_mpki / 1000.0
            tot_l2[live] += l2
            tot_l3[live] += l2 * miss_fraction[live]
            budget[live] -= cycles
            new_into = into_phase[live] + retired
            retired_total[live] += retired
            crossed = new_into >= p_instr - 1e-9
            phase_index[live] += crossed
            into_phase[live] = np.where(crossed, 0.0, new_into)
            stopped[live] |= watch[live] & (retired_total[live] >= startup_instr[live])

        self.phase_index[idx] = phase_index
        self.into_phase[idx] = into_phase
        self.retired_total[idx] = retired_total
        occupied = tot_cycles / frequency
        switches = (occ > 1).astype(float)
        self._ctr[:, idx] += np.stack(
            (tot_cycles, tot_instr, tot_stall, tot_l2, tot_l3, switches, occupied)
        )
        self.occ_weighted[idx] += occ * dt
        self.occ_weight[idx] += dt

        deltas = {
            "cycles": tot_cycles,
            "instructions": tot_instr,
            "stall_cycles_l2_miss": tot_stall,
            "l2_misses": tot_l2,
            "l3_misses": tot_l3,
            "context_switches": switches,
        }
        # Startup (Litmus probe) completions must snapshot the machine-wide
        # counters exactly as the scalar engine does: mid-epoch, after the
        # contributions of invocations at earlier runnable positions (and
        # the recorder itself) but before later ones.
        startup_now = np.nonzero(watch & (retired_total >= startup_instr))[0]
        if self._materialize and startup_now.size:
            self._record_startups(startup_now, idx, m_of, deltas, now)
        self.startup_recorded[idx[startup_now]] = True

        for field, values in deltas.items():
            self._m_counters[field] += np.bincount(
                m_of, weights=values, minlength=self._machines
            )
        self._m_elapsed += dt
        self._time = now

        finished_positions = np.nonzero(phase_index >= phase_count)[0]
        if finished_positions.size:
            self._finish(idx[finished_positions])

    # ------------------------------------------------------------------ #
    # Water-filling cache allocation (vectorized per machine)
    # ------------------------------------------------------------------ #
    def _water_fill(
        self,
        rate: np.ndarray,
        need: np.ndarray,
        solo_hit: np.ndarray,
        m_of: np.ndarray,
    ) -> np.ndarray:
        """Effective L3 hit fractions under capacity contention.

        Vectorized replica of ``SharedCacheModel.allocate``, pass for pass,
        on every machine at once: capacity is split per machine
        proportionally to request rate, capped at each workload's working
        set (``need`` is the working set pre-clamped to the L3 capacity),
        surplus re-offered until no workload is capped; hit fractions
        degrade along the concave utility curve.

        Pass invariant: a lane is ``live`` while it is still on offer, and
        every live lane has ``alloc == 0.0`` — a lane leaves the offer in
        the same pass that sets its allocation.  So the scalar loop's
        ``need - alloc`` is ``need`` and its ``alloc + share`` is ``share``,
        bit for bit.  Per-machine folds keep the scalar sum order: rates
        fold through ``np.bincount`` and capped grants come off ``rem``
        through ``np.subtract.at``, both sequential in runnable order.

        The utility curve is the one transcendental in the per-epoch chain.
        NumPy's SIMD ``power`` rounds differently from libm ``pow`` (the
        scalar engine's ``**``) in ~6 % of cases, and a 1-ulp penalty
        difference drifts the accumulated instruction counters onto the
        scalar engine's exact startup-boundary comparisons.
        ``np.float_power`` has no SIMD loop: its float64 loop calls libm
        ``pow`` per element, and ``pow(1.0, e)`` is exactly 1.0, so fully
        covered lanes need no mask.  ``tests/test_props_water_fill.py``
        fails loudly on a NumPy build where that stops holding.
        """
        machines = self._machines
        active = (rate > 0.0) & (need > 0.0)
        alloc = np.zeros(rate.shape[0])
        rem = np.full(machines, self._capacity_mb)
        live = active
        while True:
            live_rate = np.where(live, rate, 0.0)
            total = np.bincount(m_of, weights=live_rate, minlength=machines)
            processing = (total > 0.0) & (rem > 1e-12)
            live = live & processing[m_of]
            if not live.any():
                break
            self._stats.water_fill_passes += 1
            # Machines off the offer divide by 1.0, never 0/0; their lanes'
            # shares are never read.
            share = rem[m_of] * live_rate / np.where(processing, total, 1.0)[m_of]
            capped = live & (share >= need)
            if not capped.any():
                alloc[live] = share[live]
                break
            # Machines without a capped lane distribute their shares and
            # stop (the scalar loop's final branch); capped lanes take
            # their need, granted off ``rem`` in runnable order.
            has_capped = np.zeros(machines, dtype=bool)
            has_capped[m_of[capped]] = True
            final = live & ~has_capped[m_of]
            alloc[final] = share[final]
            alloc[capped] = need[capped]
            np.subtract.at(rem, m_of[capped], need[capped])
            live = live & has_capped[m_of] & ~capped
        hit = solo_hit.copy()
        coverage = np.minimum(np.maximum(alloc[active] / need[active], 0.0), 1.0)
        hit[active] = solo_hit[active] * np.float_power(coverage, self._utility_exponent)
        return hit

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def _record_startups(
        self,
        positions: np.ndarray,
        idx: np.ndarray,
        m_of: np.ndarray,
        deltas: Dict[str, np.ndarray],
        now: float,
    ) -> None:
        """Fill probe-window snapshots for invocations finishing startup."""
        for position in positions.tolist():
            index = int(idx[position])
            handle = self._handles[index]
            if handle is None or handle.startup_recorded:
                continue
            machine = int(m_of[position])
            prefix = (m_of == machine) & (np.arange(idx.size) <= position)
            machine_end = CounterSnapshot(
                cycles=float(
                    self._m_counters["cycles"][machine]
                    + deltas["cycles"][prefix].sum()
                ),
                instructions=float(
                    self._m_counters["instructions"][machine]
                    + deltas["instructions"][prefix].sum()
                ),
                stall_cycles_l2_miss=float(
                    self._m_counters["stall_cycles_l2_miss"][machine]
                    + deltas["stall_cycles_l2_miss"][prefix].sum()
                ),
                l2_misses=float(
                    self._m_counters["l2_misses"][machine]
                    + deltas["l2_misses"][prefix].sum()
                ),
                l3_misses=float(
                    self._m_counters["l3_misses"][machine]
                    + deltas["l3_misses"][prefix].sum()
                ),
                context_switches=float(
                    self._m_counters["context_switches"][machine]
                    + deltas["context_switches"][prefix].sum()
                ),
                elapsed_seconds=float(self._m_elapsed[machine]),
            )
            self._sync_handle_counters(index)
            handle.record_startup_completion(now, machine_end)

    def _sync_handle_counters(self, index: int) -> None:
        handle = self._handles[index]
        if handle is None:
            return
        counters = handle.counters
        column = self._ctr[:, index]
        counters.cycles = float(column[0])
        counters.instructions = float(column[1])
        counters.stall_cycles_l2_miss = float(column[2])
        counters.l2_misses = float(column[3])
        counters.l3_misses = float(column[4])
        counters.context_switches = float(column[5])
        counters.elapsed_seconds = float(column[6])
        handle._occupancy_weighted_sum = float(self.occ_weighted[index])
        handle._occupancy_weight = float(self.occ_weight[index])

    def _finish(self, finished_indices: np.ndarray) -> None:
        """Retire finished invocations and fire listeners in runnable order."""
        materialize = self._materialize
        for index in finished_indices.tolist():
            self.active[index] = False
            self.finish_time[index] = self._time
            self._queues[int(self.gthread[index])].remove(index)
            self._order_dirty = True
            self._stats.completions += 1
            machine = int(self.machine_of[index])
            machine_listeners = self._machine_listeners.get(machine)
            handle: object = index
            if materialize:
                handle = self._handles[index]
                self._sync_handle_counters(index)
                handle.mark_finished(self._time)
                # Release the handle: listeners that need it keep it.
                self._handles[index] = None
                if not self._finish_listeners and not machine_listeners:
                    self._completed.append(handle)
            for listener in list(self._finish_listeners):
                listener(handle, self)
            if machine_listeners:
                view = _MachineView(self, machine)
                for listener in list(machine_listeners):
                    listener(handle, view)
            if not materialize:
                # Listener work (e.g. churn resubmission) is done with this
                # index; recycle its column so churn fleets stay bounded by
                # their active size.  (``completed`` therefore only tracks
                # materialized handles.)
                self._free.append(index)
