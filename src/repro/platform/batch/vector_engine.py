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

An epoch over a few hundred lanes costs NumPy call dispatch, not
arithmetic, so the epoch is laid out to make few calls:

* **One packed record per invocation.**  Each invocation owns one row of
  a float record (the ``_R_*`` columns): its seven counters and two
  occupancy weights, its contention penalty, its phase progress and its
  two instruction thresholds (total, and startup while the probe window
  is open).  An epoch gathers the runnable rows with one ``take``, adds
  its counter deltas as one block, and scatters the rows back with one
  assignment; the six machine counters fold with one ``np.bincount``.
* **Solo-initialised penalties.**  A lane's penalty is its hit term
  ``h * l3_latency + (1 - h) * memory_latency`` (the numerator of the
  stall formula) and its inflation.  A new invocation starts from the
  solo penalty: the hit term of its first phase's solo hit fraction at
  the unloaded latencies, and inflation 1.0.  That is the scalar solo
  stall operand for operand, and ``cpi_base * 1.0 * multiplier`` equals
  ``cpi_base * multiplier`` exactly, so the first epoch needs no branch.
* **Cached lane layout.**  The runnable order and everything that
  follows from it (machines, occupancy, switching multiplier, cycle
  budget, frequency) changes only when an invocation starts or finishes,
  or a frequency scale changes.  Arrivals merge into the kept order by a
  stable sort on (thread, submission) keys, with no Python pass over the
  lanes, and while every thread keeps its lane count — a finished
  invocation replaced on its thread — only the spec columns are redone.
* **One profile row per (spec, phase).**  An epoch gathers every
  profile field with one ``take``; the advance passes mask lanes with
  ``np.where`` instead of gathering and scattering subsets, and a masked
  lane adds exact zeros.
* **A water-fill fast path** for the usual first pass, in which every lane
  is on offer and every machine offers its whole cache (see
  :meth:`VectorEngine._water_fill`).

Limitations (gated with explicit errors): SMT sharing domains and
event-log recording are not supported; randomness must live outside the
engine, exactly as with the scalar engine.
"""

from __future__ import annotations

import math
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

#: Columns of the per-invocation record.  The first nine accumulate an
#: epoch's deltas, and the first six of those are also the machine-wide
#: counters (in ``CounterSnapshot`` field order).
(_R_CYCLES, _R_INSTRUCTIONS, _R_STALL, _R_L2, _R_L3, _R_SWITCHES, _R_ELAPSED) = range(7)
(_R_OCC_WEIGHTED, _R_OCC_WEIGHT, _R_HIT_TERM, _R_INFLATION) = range(7, 11)
(_R_INTO_PHASE, _R_RETIRED, _R_TOTAL, _R_STARTUP) = range(11, 15)
_RECORD_WIDTH = 15
_ACCUMULATED = 9
_MACHINE_FIELDS = 6
#: One record row as an opaque item, for row scatters.
_ROW = np.dtype((np.void, 8 * _RECORD_WIDTH))

#: Columns of the profile table: one row per (spec, phase).
(_P_CPI, _P_MPKI, _P_MPKI_PER_INST, _P_NEED, _P_SOLO_HIT, _P_MLP) = range(6)
(_P_INSTRUCTIONS, _P_END) = (6, 7)
_PROFILE_WIDTH = 8

#: Bits of the runnable-order key below the thread id; the rest count
#: submissions, so a thread's lanes sort in submission order.
_SEQUENCE_BITS = 40

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
    """One profile-table row per (spec, phase) for every distinct spec."""

    def __init__(self) -> None:
        self._index: Dict[FunctionSpec, int] = {}
        self._by_id: Dict[int, int] = {}
        #: Keeps every id-cached spec object alive so ids cannot recycle.
        self._keepalive: List[FunctionSpec] = []
        self.specs: List[FunctionSpec] = []
        # Built lazily into dense arrays on demand.
        self._dirty = True
        #: Row ``spec * width + phase`` holds that phase's ``_P_*`` columns.
        self.table: np.ndarray = np.zeros((0, _PROFILE_WIDTH))
        self.width = 1
        self.phase_count: np.ndarray = np.zeros(0, dtype=np.int64)
        #: Upper bound on advance passes in one epoch.
        self.max_passes = 2

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

    def rebuild(self, capacity_mb: float) -> None:
        if not self._dirty:
            return
        # One padding row past each spec's last phase: a finished lane
        # reads it in later advance passes, masked out.  Its divisors are
        # 1.0, so it never divides by zero.
        width = max(len(spec.phases) for spec in self.specs) + 1
        table = np.zeros((len(self.specs), width, _PROFILE_WIDTH))
        table[:, :, [_P_CPI, _P_MLP, _P_INSTRUCTIONS]] = 1.0
        table[:, :, _P_END] = 1.0 - 1e-9
        for s, spec in enumerate(self.specs):
            for p, phase in enumerate(spec.phases):
                profile = phase.profile
                table[s, p] = (
                    profile.cpi_base,
                    profile.l2_mpki,
                    profile.l2_mpki / 1000.0,
                    min(profile.working_set_mb, capacity_mb),
                    profile.solo_l3_hit_fraction,
                    profile.mlp,
                    phase.instructions,
                    phase.instructions - 1e-9,
                )
        self.table = table.reshape(-1, _PROFILE_WIDTH)
        self.width = width
        self.phase_count = np.array([len(spec.phases) for spec in self.specs], dtype=np.int64)
        self.max_passes = width + 1
        self._dirty = False


class _Lanes:
    """The runnable lanes and everything that depends on them alone.

    Rebuilt when an invocation starts or finishes or a frequency scale
    changes, and constant across the epochs in between.  The columns after
    ``phase_count`` follow from the lanes' threads alone, so they carry
    over while every thread keeps its lane count (``occupancy``).
    """

    #: Invocation indices in runnable order.
    idx: np.ndarray
    #: Each lane's first profile-table row (``spec * width``).
    spec_row: np.ndarray
    phase_count: np.ndarray
    #: The engine's per-thread lane counts the layout was built for.
    occupancy: List[int]
    machine: np.ndarray
    multiplier: np.ndarray
    cycles_available: np.ndarray
    #: Whether every lane enters the epoch with more than one cycle.
    full_budget: bool
    frequency: np.ndarray
    #: An epoch's delta block before the advance: zero but for the
    #: switch and occupancy-weight columns.
    delta: np.ndarray
    #: ``np.bincount`` keys ``machine * _ACCUMULATED + column`` of
    #: ``delta.ravel()``.
    bins: np.ndarray


class _VectorThreadView:
    """Occupancy view of one hardware thread (duck-types ``HardwareThread``)."""

    __slots__ = ("_engine", "_gthread")

    def __init__(self, engine: "VectorEngine", gthread: int) -> None:
        self._engine = engine
        self._gthread = gthread

    @property
    def occupancy(self) -> int:
        return self._engine._occupancy[self._gthread]

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
    compatible) and bare integer indices (cheaper at fleet scale, rows
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

        #: Invocations hosted by each hardware thread (global thread id).
        self._occupancy: List[int] = [0] * (machines * self._threads_per_machine)
        #: Runnable invocations in (thread, submission) order, without the
        #: arrivals since the last lane refresh.
        self._order: np.ndarray = np.zeros(0, dtype=np.int64)
        self._arrivals: List[int] = []
        self._lanes: Optional[_Lanes] = None
        self._lanes_dirty = True

        # Derived machine constants.
        self._capacity_mb = machine.l3.size_mb
        self._line_size = float(machine.line_size_bytes)
        self._l3_latency = machine.l3.latency_cycles
        self._memory_latency = machine.memory_latency_cycles
        # The ring and memory queueing models side by side: row 0 is the
        # ring (L3 lookups), row 1 the memory bus (DRAM bytes).
        self._peaks = np.array(
            [
                [machine.ring_peak_accesses_per_us * 1e6],
                [machine.memory_bandwidth_gbs * 1e9],
            ]
        )
        self._base_latency = np.array(
            [[self._l3_latency], [self._memory_latency]], dtype=float
        )
        self.set_contention_parameters(self._parameters)
        self._switch_factors: Dict[int, float] = {}
        self._switch_table: Optional[np.ndarray] = None
        self._governor = FrequencyGovernor(machine=machine, policy=frequency_policy)
        self._turbo_cache: Dict[int, float] = {}
        self._fixed_frequency = np.full(machines, machine.base_frequency_ghz * 1e9)
        # Fault-injection hook: per-machine frequency multiplier.  ``None``
        # (every machine healthy) keeps the fault-free path untouched.
        self._freq_scale: Optional[np.ndarray] = None

        # Per-machine accumulators (the machine-wide PMU view), one row per
        # counter field.
        self._m_counters = np.zeros((_MACHINE_FIELDS, machines))
        self._m_elapsed = np.zeros(machines)

        # Per-invocation state arrays, grown by doubling.  In
        # non-materialized mode finished rows go onto a free list and are
        # reused, so a long churn sweep's footprint is bounded by the peak
        # *active* fleet, not by total completions; materialized handles keep
        # unique invocation ids for the scalar drivers, so there rows are
        # append-only (figure-scale runs are bounded anyway).
        self._count = 0
        self._next_sandbox_id = 0
        self._free: List[int] = []
        self._grow(max(initial_capacity, 16))
        self._handles: List[Optional[Invocation]] = []
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
        non-materialized mode finished rows are recycled, so this stays
        bounded by the peak active fleet.
        """
        return self._count

    @property
    def active_count(self) -> int:
        """Invocations currently running anywhere in the fleet."""
        return sum(self._occupancy)

    @property
    def completed(self) -> List[object]:
        """Finished ``Invocation`` handles that no finish listener received.

        A completion on a machine with finish listeners (engine-wide or
        attached through its view) is handed to them and then released:
        the drivers keep the handles they need, so a long churn run does
        not hold every finished handle.  Non-materialized engines recycle
        finished rows and count completions in ``stats.completions``
        instead of retaining them.
        """
        return list(self._completed)

    def machine_counters(self, machine: int = 0) -> CounterSnapshot:
        """Machine-wide counter snapshot (the Litmus-test view)."""
        return CounterSnapshot(
            *self._m_counters[:, machine].tolist(),
            elapsed_seconds=float(self._m_elapsed[machine]),
        )

    @property
    def fleet_shared_stall_fraction(self) -> float:
        """Fleet-wide shared-resource stall share: stall cycles / cycles.

        A cheap read over the already-maintained counter arrays — the
        per-epoch telemetry samplers use it (repro.obs.series), so it
        must never mutate state.
        """
        cycles = float(self._m_counters[_R_CYCLES].sum())
        if cycles <= 0.0:
            return 0.0
        return float(self._m_counters[_R_STALL].sum()) / cycles

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
        # Lane frequencies are part of the cached lane layout.
        self._lanes = None
        self._lanes_dirty = True

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
        self._parameters = parameters = parameters or ContentionParameters()
        self._utility_exponent = parameters.cache_utility_exponent
        self._max_util = parameters.max_utilization
        self._queueing = np.array(
            [
                [parameters.ring_queueing_coefficient],
                [parameters.memory_queueing_coefficient],
            ]
        )
        self._pressure = parameters.private_pressure_sensitivity

    def invocation_spec(self, index: int) -> FunctionSpec:
        """The function spec of a tracked invocation, by index.

        Valid while the invocation's row is live — including inside
        finish listeners, which fire before the row is recycled.
        """
        return self._specs.specs[int(self.spec_idx[index])]

    def invocation_elapsed_seconds(self, index: int) -> float:
        """Seconds a tracked invocation has occupied its processor.

        The metering pipeline's per-completion reading: same validity
        window as :meth:`invocation_spec`.
        """
        return float(self._rec[index, _R_ELAPSED])

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
        return self._occupancy[machine * self._threads_per_machine + thread_id]

    def __getstate__(self) -> Dict[str, object]:
        # Finish listeners are arbitrary closures over driver state and are
        # not picklable in general; whoever checkpoints an engine owns
        # re-attaching its listeners after restore (see ``repro.serve``).
        state = self.__dict__.copy()
        state["_finish_listeners"] = []
        state["_machine_listeners"] = {}
        # The lane layout is derived state; the restored engine rebuilds it.
        state["_lanes"] = None
        state["_lanes_dirty"] = True
        return state

    # ------------------------------------------------------------------ #
    # Storage management
    # ------------------------------------------------------------------ #
    def _grow(self, capacity: int) -> None:
        def extend(name: str, dtype=float, width: Optional[int] = None) -> np.ndarray:
            fresh = np.zeros(capacity if width is None else (capacity, width), dtype=dtype)
            array = getattr(self, name, None)
            if array is not None:
                fresh[: array.shape[0]] = array
            return fresh

        # Id-indexed arrays: drivers and listeners read ``machine_of`` and
        # ``gthread`` by invocation index.
        self.spec_idx = extend("spec_idx", np.int64)
        self.machine_of = extend("machine_of", np.int64)
        self.gthread = extend("gthread", np.int64)
        self.phase_index = extend("phase_index", np.int64)
        #: Runnable-order sort key: ``(gthread << _SEQUENCE_BITS) + submission``.
        self._order_key = extend("_order_key", np.int64)
        #: The packed per-invocation record (``_R_*`` columns).
        self._rec = extend("_rec", width=_RECORD_WIDTH)
        self._capacity = capacity

    def _fresh_row(self, spec: FunctionSpec) -> np.ndarray:
        """Record row of a new invocation: zero counters, solo penalty."""
        solo_hit = spec.phases[0].profile.solo_l3_hit_fraction
        row = np.zeros(_RECORD_WIDTH)
        row[_R_HIT_TERM] = (
            solo_hit * self._l3_latency + (1.0 - solo_hit) * self._memory_latency
        )
        row[_R_INFLATION] = 1.0
        row[_R_TOTAL] = spec.total_instructions
        # Traffic generators have no probe window to watch.
        row[_R_STARTUP] = (
            math.inf if spec.is_traffic_generator else spec.startup_instructions
        )
        return row

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _least_loaded_thread(self, machine: int) -> int:
        base = machine * self._threads_per_machine
        occupancy = self._occupancy[base : base + self._threads_per_machine]
        return occupancy.index(min(occupancy))

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
        else:
            index = self._count
            if index >= self._capacity:
                self._grow(self._capacity * 2)
            self._count = index + 1
            self._handles.append(None)

        spec_index = self._specs.intern(spec)
        gthread = machine * self._threads_per_machine + thread_id
        self.spec_idx[index] = spec_index
        self.machine_of[index] = machine
        self.gthread[index] = gthread
        self.phase_index[index] = 0
        self._rec[index] = self._fresh_row(spec)
        self._order_key[index] = (gthread << _SEQUENCE_BITS) + self._stats.submissions
        self._occupancy[gthread] += 1
        self._arrivals.append(index)
        self._lanes_dirty = True
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

    def _refresh_lanes(self) -> None:
        """Bring the lane layout up to date after starts and finishes.

        Lanes are the active invocations in (thread id, submission) order:
        the order the scalar engine's ``_collect_runnable`` visits them in,
        so per-machine reductions fold like the scalar sums.  Arrivals are
        merged into the kept order with a stable sort on their keys.  When
        every thread hosts as many lanes as before (a finished invocation
        replaced on its thread), only the spec-dependent columns change.
        """
        self._lanes_dirty = False
        order = self._order
        if self._arrivals:
            order = np.concatenate((order, np.array(self._arrivals, dtype=np.int64)))
            self._arrivals = []
            order = order[np.argsort(self._order_key[order], kind="stable")]
            self._order = order
        if not order.size:
            self._lanes = None
            return
        specs = self._specs
        specs.rebuild(self._capacity_mb)
        lanes = self._lanes
        if lanes is None or lanes.occupancy != self._occupancy:
            lanes = self._lanes = self._thread_layout(self.gthread[order])
        spec_i = self.spec_idx[order]
        lanes.idx = order
        lanes.spec_row = spec_i * specs.width
        lanes.phase_count = specs.phase_count[spec_i]

    def _thread_layout(self, g_of: np.ndarray) -> _Lanes:
        """New lanes on threads ``g_of``, with their thread-only columns."""
        dt = self._config.epoch_seconds
        m_of = g_of // self._threads_per_machine
        per_thread = np.bincount(g_of, minlength=self._machines * self._threads_per_machine)
        occ = per_thread[g_of]
        frequency = self._frequency_hz(per_thread)[m_of]
        # Each lane gets ``dt / occupancy`` of its thread (temporal sharing).
        cycles_available = dt / occ * frequency
        delta = np.zeros((g_of.size, _ACCUMULATED))
        delta[:, _R_SWITCHES] = occ > 1
        delta[:, _R_OCC_WEIGHTED] = occ * dt
        delta[:, _R_OCC_WEIGHT] = dt
        lanes = _Lanes()
        lanes.occupancy = list(self._occupancy)
        lanes.machine = m_of
        lanes.multiplier = self._switch_factor_table(int(occ.max()))[occ]
        lanes.cycles_available = cycles_available
        lanes.full_budget = bool((cycles_available > 1.0).all())
        lanes.frequency = frequency
        lanes.delta = delta
        lanes.bins = (m_of[:, None] * _ACCUMULATED + np.arange(_ACCUMULATED)).ravel()
        return lanes

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

    def _frequency_hz(self, per_thread: np.ndarray) -> np.ndarray:
        """Per-machine operating frequency, memoized per busy-thread count.

        ``per_thread`` is every hardware thread's lane count.

        Delegates to :class:`FrequencyGovernor` so the turbo curve has a
        single source of truth (and stays ``math.exp``-exact against the
        scalar engine).
        """
        if self._frequency_policy is FrequencyPolicy.FIXED:
            if self._freq_scale is not None:
                return self._fixed_frequency * self._freq_scale
            return self._fixed_frequency
        busy_threads = np.count_nonzero(
            per_thread.reshape(self._machines, self._threads_per_machine), axis=1
        )
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
        stats = self._stats
        stats.epochs += 1
        dt = self._config.epoch_seconds
        now = self._time + dt
        if self._lanes_dirty:
            self._refresh_lanes()
        lanes = self._lanes
        if lanes is None:
            self._m_elapsed += dt
            self._time = now
            return
        idx = lanes.idx
        m_of = lanes.machine
        multiplier = lanes.multiplier
        cycles_available = lanes.cycles_available
        table = self._specs.table
        rec = self._rec.take(idx, axis=0)
        # Every runnable invocation is mid-execution, so its phase is a real
        # row of the profile table (finished ones left the lanes).
        phase = self.phase_index[idx]
        profile = table.take(lanes.spec_row + phase, axis=0)
        cpi_base = profile[:, _P_CPI]
        l2_mpki = profile[:, _P_MPKI]
        mpki_per_inst = profile[:, _P_MPKI_PER_INST]
        mlp = profile[:, _P_MLP]
        retired_total = rec[:, _R_RETIRED]
        remaining = np.maximum(rec[:, _R_TOTAL] - retired_total, 0.0)

        # ---------------- contention fixed point ---------------------- #
        # Warm-started from the previous epoch's penalties, or the solo
        # penalty a lane was submitted with.
        hit_term = rec[:, _R_HIT_TERM]
        inflation = rec[:, _R_INFLATION]
        machines = self._machines
        for _ in range(self._config.fixed_point_iterations):
            stats.fixed_point_iterations += 1
            stall = mpki_per_inst * (hit_term / mlp)
            cpi_effective = cpi_base * inflation * multiplier + stall
            instructions = np.minimum(cycles_available / cpi_effective, remaining)
            rate = instructions * l2_mpki / 1000.0 / dt

            lookups = np.bincount(m_of, weights=rate, minlength=machines)
            hit_frac = self._water_fill(
                rate, profile[:, _P_NEED], profile[:, _P_SOLO_HIT], m_of, lookups
            )
            miss = 1.0 - hit_frac
            # Row 0: ring utilisation from L3 lookups; row 1: memory-bus
            # utilisation from DRAM bytes.  Lookups and bytes are never
            # negative, so the scalar model's clamp at 0.0 is a no-op.
            util = np.minimum(
                np.array(
                    (
                        lookups,
                        np.bincount(
                            m_of,
                            weights=rate * miss * self._line_size,
                            minlength=machines,
                        ),
                    )
                )
                / self._peaks,
                self._max_util,
            )
            latency = self._base_latency * (1.0 + self._queueing * util / (1.0 - util))
            inflation = (1.0 + self._pressure * np.maximum(util[0], util[1]))[m_of]
            hit_term = hit_frac * latency[0][m_of] + miss * latency[1][m_of]

        # ---------------- epoch advancement --------------------------- #
        # Every pass runs on all lanes; lanes out of budget, finished or
        # stopped at their probe window are masked and retire exactly 0.0,
        # which leaves every sum they touch unchanged.  The first pass
        # reuses the epoch's profile gather.
        delta = lanes.delta.copy()
        budget = cycles_available
        into_phase = rec[:, _R_INTO_PHASE]
        startup = rec[:, _R_STARTUP]
        phase_count = lanes.phase_count
        for pass_no in range(self._specs.max_passes):
            if pass_no == 0 and lanes.full_budget:
                live = None
            else:
                live = (budget > 1.0) & (phase < phase_count) & (retired_total < startup)
                if not live.any():
                    break
                if pass_no:
                    profile = table.take(lanes.spec_row + phase, axis=0)
            stats.advance_passes += 1
            stall = profile[:, _P_MPKI_PER_INST] * (hit_term / profile[:, _P_MLP])
            cpi_effective = profile[:, _P_CPI] * inflation * multiplier + stall
            retired = np.minimum(
                budget / cpi_effective, profile[:, _P_INSTRUCTIONS] - into_phase
            )
            if live is not None:
                retired = np.where(live, retired, 0.0)
            cycles = retired * cpi_effective
            delta[:, _R_CYCLES] += cycles
            delta[:, _R_INSTRUCTIONS] += retired
            delta[:, _R_STALL] += retired * stall
            l2 = retired * profile[:, _P_MPKI] / 1000.0
            delta[:, _R_L2] += l2
            delta[:, _R_L3] += l2 * miss
            budget = budget - cycles
            into_phase = into_phase + retired
            retired_total = retired_total + retired
            crossed = into_phase >= profile[:, _P_END]
            if live is not None:
                crossed &= live
            phase = phase + crossed
            into_phase = np.where(crossed, 0.0, into_phase)

        delta[:, _R_ELAPSED] = delta[:, _R_CYCLES] / lanes.frequency
        rec[:, _R_INTO_PHASE] = into_phase
        rec[:, _R_RETIRED] = retired_total
        rec[:, _R_HIT_TERM] = hit_term
        rec[:, _R_INFLATION] = inflation
        rec[:, :_ACCUMULATED] += delta
        # Each row scatters as one opaque item: half the cost of a float
        # row assignment.
        np.put(self._rec.view(_ROW), idx, rec.view(_ROW))
        self.phase_index[idx] = phase

        # Startup (Litmus probe) completions must snapshot the machine-wide
        # counters exactly as the scalar engine does: mid-epoch, after the
        # contributions of invocations at earlier runnable positions (and
        # the recorder itself) but before later ones.
        startup_now = (retired_total >= startup).nonzero()[0]
        if startup_now.size:
            if self._materialize:
                self._record_startups(startup_now, idx, m_of, delta, now)
            self._rec[idx[startup_now], _R_STARTUP] = math.inf

        self._m_counters += (
            np.bincount(lanes.bins, weights=delta.ravel(), minlength=machines * _ACCUMULATED)
            .reshape(machines, _ACCUMULATED)[:, :_MACHINE_FIELDS]
            .T
        )
        self._m_elapsed += dt
        self._time = now

        finished = phase >= phase_count
        if finished.any():
            self._order = idx[~finished]
            self._finish(idx[finished])

    # ------------------------------------------------------------------ #
    # Water-filling cache allocation (vectorized per machine)
    # ------------------------------------------------------------------ #
    def _water_fill(
        self,
        rate: np.ndarray,
        need: np.ndarray,
        solo_hit: np.ndarray,
        m_of: np.ndarray,
        lookups: Optional[np.ndarray] = None,
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

        Fast path: when every lane has a positive rate and need, the first
        pass offers every machine's whole cache to every lane (``rem`` is
        the capacity everywhere, every machine's rate total is positive),
        so its shares need no masks, no ``alloc`` and no ``rem``.  When no
        share reaches its lane's need (the usual case) that pass is the
        whole fill and the shares are the allocations; otherwise the pass
        loop continues from it.  ``lookups``, the per-machine rate fold
        ``np.bincount(m_of, weights=rate)`` when the caller has it, is that
        pass's rate total.
        """
        machines = self._machines
        capacity = self._capacity_mb
        exponent = self._utility_exponent
        share = None
        if capacity > 1e-12 and rate.min() > 0.0 and need.min() > 0.0:
            self._stats.water_fill_passes += 1
            if lookups is None:
                lookups = np.bincount(m_of, weights=rate, minlength=machines)
            share = capacity * rate / lookups[m_of]
            capped = share >= need
            if not capped.any():
                return solo_hit * np.float_power(np.minimum(share / need, 1.0), exponent)
            active = live = np.ones(rate.shape[0], dtype=bool)
        else:
            active = live = (rate > 0.0) & (need > 0.0)
        alloc = np.zeros(rate.shape[0])
        rem = np.full(machines, capacity)
        while True:
            if share is None:
                live_rate = np.where(live, rate, 0.0)
                total = np.bincount(m_of, weights=live_rate, minlength=machines)
                processing = (total > 0.0) & (rem > 1e-12)
                live = live & processing[m_of]
                if not live.any():
                    break
                self._stats.water_fill_passes += 1
                # Machines off the offer divide by 1.0, never 0/0; their
                # lanes' shares are never read.
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
            share = None
        # Allocations are never negative, so the scalar model's clamp of
        # the coverage at 0.0 is a no-op.
        hit = solo_hit.copy()
        coverage = np.minimum(alloc[active] / need[active], 1.0)
        hit[active] = solo_hit[active] * np.float_power(coverage, exponent)
        return hit

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #
    def _record_startups(
        self,
        positions: np.ndarray,
        idx: np.ndarray,
        m_of: np.ndarray,
        delta: np.ndarray,
        now: float,
    ) -> None:
        """Fill probe-window snapshots for invocations finishing startup."""
        lane = np.arange(idx.size)
        for position in positions.tolist():
            index = int(idx[position])
            handle = self._handles[index]
            if handle is None or handle.startup_recorded:
                continue
            machine = int(m_of[position])
            prefix = (m_of == machine) & (lane <= position)
            machine_end = CounterSnapshot(
                *[
                    float(self._m_counters[field, machine] + delta[prefix, field].sum())
                    for field in range(_MACHINE_FIELDS)
                ],
                elapsed_seconds=float(self._m_elapsed[machine]),
            )
            self._sync_handle_counters(index)
            handle.record_startup_completion(now, machine_end)

    def _sync_handle_counters(self, index: int) -> None:
        handle = self._handles[index]
        if handle is None:
            return
        row = self._rec[index].tolist()
        counters = handle.counters
        counters.cycles = row[_R_CYCLES]
        counters.instructions = row[_R_INSTRUCTIONS]
        counters.stall_cycles_l2_miss = row[_R_STALL]
        counters.l2_misses = row[_R_L2]
        counters.l3_misses = row[_R_L3]
        counters.context_switches = row[_R_SWITCHES]
        counters.elapsed_seconds = row[_R_ELAPSED]
        handle._occupancy_weighted_sum = row[_R_OCC_WEIGHTED]
        handle._occupancy_weight = row[_R_OCC_WEIGHT]

    def _finish(self, finished_indices: np.ndarray) -> None:
        """Retire finished invocations and fire listeners in runnable order."""
        materialize = self._materialize
        self._lanes_dirty = True
        for index in finished_indices.tolist():
            self._occupancy[int(self.gthread[index])] -= 1
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
                # index; recycle its row so churn fleets stay bounded by
                # their active size.  (``completed`` therefore only tracks
                # materialized handles.)
                self._free.append(index)
