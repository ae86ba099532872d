"""Per-machine views of a vector fleet, and release of finished handles.

A scalar driver attached through ``VectorEngine.machine_view(m)`` must
submit, read occupancy and hear completions on machine ``m`` only — the
batched calibration runs one stress point per machine on that promise.
Once a finished invocation's listeners have run, the engine lets go of
its handle, so a churning fleet does not keep every handle alive.
"""

import gc
import weakref

from repro.hardware.topology import CASCADE_LAKE_5218
from repro.platform.batch import VectorEngine
from repro.platform.churn import ChurnManager
from repro.platform.drivers import WorkQueueDriver
from repro.workloads.synthetic import WorkloadMixer


def _small_pool(registry):
    return [spec.scaled(0.05) for spec in registry.all()]


def test_churn_through_machine_one_stays_on_machine_one(registry):
    engine = VectorEngine(CASCADE_LAKE_5218, machines=2)
    churn = ChurnManager(WorkloadMixer(_small_pool(registry), seed=7), 4, thread_ids=[0, 1])
    churn.attach(engine.machine_view(1))
    threads = range(engine.threads_per_machine)
    for _ in range(300):
        engine.run_epoch()
        assert all(engine.thread_occupancy(0, t) == 0 for t in threads)
    assert churn.launched_count > churn.target_count  # it did resubmit
    assert engine.thread_occupancy(1, 0) + engine.thread_occupancy(1, 1) == 4


def test_view_listeners_hear_only_their_machine(registry):
    engine = VectorEngine(CASCADE_LAKE_5218, machines=2)
    spec = registry.get("fib-go").scaled(0.05)
    heard = {0: [], 1: []}
    for machine in (0, 1):
        view = engine.machine_view(machine)
        view.add_finish_listener(
            lambda handle, v, machine=machine: heard[machine].append((handle, v))
        )
        WorkQueueDriver([spec] * (machine + 1), allowed_threads=[2]).attach(view)
    assert engine.run_until(lambda eng: eng.active_count == 0, max_seconds=5.0)
    assert [len(heard[0]), len(heard[1])] == [1, 2]
    for machine, calls in heard.items():
        for handle, view in calls:
            assert engine.machine_of[handle.invocation_id] == machine
            assert handle.thread_id == 2
            assert view.time_seconds == engine.time_seconds


def test_released_churn_handle_is_collectable_without_gc(registry):
    engine = VectorEngine(CASCADE_LAKE_5218, machines=2)
    view = engine.machine_view(1)
    finished = []
    view.add_finish_listener(lambda handle, _view: finished.append(weakref.ref(handle)))
    ChurnManager(WorkloadMixer(_small_pool(registry), seed=7), 2, thread_ids=[0]).attach(view)
    gc.disable()
    try:
        engine.run_for(0.3)
        assert finished
        assert all(ref() is None for ref in finished)
    finally:
        gc.enable()
    # Nobody listened on machine 0 and nothing ran there; a listener-free
    # engine still keeps its finished handles (see test_pf_vector_engine).
    assert engine.completed == []
