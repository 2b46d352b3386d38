"""Warm persistent worker pool for campaign execution.

The campaign's old process pool lost to serial execution (0.16x) because
every submitted unit paid model-snapshot loading, dataset regeneration and
test-set Poisson encoding *inside* the worker.  This module replaces it
with long-lived workers and a strict split of responsibilities:

Orchestrator (this process)
    Trains/loads the clean models, hands every worker one
    :class:`ExperimentContext` per experiment (snapshot path, test set,
    technique specs) as a process argument — fork inherits it, spawn
    pickles it once — and then sends units as cell descriptions only; it
    draws no randomness.

Workers (long-lived child processes)
    Pin OpenBLAS to one thread, load the ``TrainedModel`` snapshot once per
    experiment key, rebuild techniques from their specs, then per unit
    draw the fault maps (:func:`repro.eval.campaign.prepare_unit_inputs`)
    and run :func:`repro.eval.campaign.execute_cell_group`, which encodes
    the presentations one engine chunk at a time inside the pass, timing
    both stages and reporting their own peak resident set.  Cell seeds are
    pure functions of grid coordinates, so the records are bit-identical
    to serial execution.

Scheduling deals units from one orchestrator-side queue, largest first (by
cell count, then fault rate).  Every live worker holds at most two units;
the first deal is round-robin, so the two heaviest units start on different
workers, and every finished unit frees its worker's slot for the next one.
A worker loads an experiment's snapshot the first time one of its units
names it, which costs milliseconds, so units go wherever a slot is free.
Results stream back over a single queue, so the caller's ``on_result``
callback (and therefore ``ResultStore`` append/fsync and resume
fingerprints) behaves exactly as in serial execution.

Crash safety: the orchestrator shuts the workers down in a ``finally``
block (sentinel, then ``terminate``), so neither an error nor a
``KeyboardInterrupt`` leaves child processes behind.  A worker that dies
mid-unit is detected by liveness polling; its in-flight unit is named
(experiment key plus cell ids) and re-executed serially once, and its
other unit goes back to the front of the queue for the surviving workers.
"""

from __future__ import annotations

import collections
import ctypes
import logging
import os
import queue as queue_module
import resource
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp

from repro.data.datasets import Dataset
from repro.eval.campaign import (
    CellResult,
    SweepCell,
    TechniqueSpec,
    execute_cell_group,
    prepare_unit_inputs,
)
from repro.obs import metrics as _obs
from repro.snn.training import TrainedModel
from repro.utils.logging import env_log_level, get_logger

__all__ = [
    "ExperimentContext",
    "UnitExecutionError",
    "execute_units_pooled",
]

_LOGGER = get_logger("eval.pool")

# Pool telemetry (docs/observability.md): orchestrator-observed unit wall
# times, worker-measured stage times, live busy/queue gauges for the
# progress line, and the crash/retry counters that used to be invisible log
# lines at best.
_POOL_UNIT_SECONDS = _obs.get_registry().histogram(
    "softsnn_campaign_unit_seconds",
    "Per-unit wall time, start-to-done as observed by the orchestrator.",
)
_POOL_UNIT_STAGE_SECONDS = _obs.get_registry().histogram(
    "softsnn_campaign_unit_stage_seconds",
    "Per-unit fault-map preparation and engine pass time, measured in the worker.",
    labels=("stage",),
)
_POOL_WORKERS_BUSY = _obs.get_registry().gauge(
    "softsnn_campaign_workers_busy",
    "Pool workers currently executing a unit.",
)
_POOL_QUEUE_DEPTH = _obs.get_registry().gauge(
    "softsnn_campaign_queue_depth",
    "Units queued or in flight across pool workers.",
)
_POOL_CRASHES = _obs.get_registry().counter(
    "softsnn_campaign_worker_crashes_total",
    "Pool worker processes that died mid-campaign.",
)
_POOL_RETRIES = _obs.get_registry().counter(
    "softsnn_campaign_unit_retries_total",
    "Units re-executed serially in the orchestrator after a worker crash.",
)

# Units a worker may have queued or running at once.  Two hides the
# done-to-next-unit round trip while leaving the rest of the queue with
# the orchestrator, free to go to any worker.
_MAX_IN_FLIGHT = 2

# OpenBLAS thread (setter, getter) symbols: numpy's bundled scipy-openblas
# (ILP64, then LP64), then plain OpenBLAS builds.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# Environment hook for the crash-handling tests: a worker whose task's
# ``unit_id`` matches this value hard-exits right after acknowledging the
# unit, simulating a mid-unit crash (OOM kill, segfault).
_CRASH_UNIT_ENV = "_SOFTSNN_POOL_CRASH_UNIT"


class UnitExecutionError(RuntimeError):
    """A unit failed inside a pool worker (the exception, not a crash)."""


@dataclass(frozen=True)
class ExperimentContext:
    """Everything a worker needs to build one experiment's assets.

    The model travels as a snapshot path (loaded once per worker), the
    test set as the :class:`Dataset` itself, techniques as declarative
    specs (rebuilt in-process).  Workers receive every context once, as a
    process argument.
    """

    experiment_key: str
    model_path: str
    dataset: Dataset
    technique_specs: Tuple[Dict[str, object], ...]


@dataclass(frozen=True)
class _UnitTask:
    """One dispatched execution unit as it crosses the queue."""

    unit_id: int
    experiment_key: str
    cells: Tuple[Dict[str, object], ...]


@dataclass
class _WorkerState:
    """Orchestrator-side bookkeeping for one worker process."""

    process: mp.process.BaseProcess
    task_queue: "mp.queues.Queue"
    in_flight: List[int] = field(default_factory=list)
    started_unit: Optional[int] = None
    alive: bool = True
    #: ``perf_counter`` when the current unit's "start" ack arrived;
    #: workers execute units strictly serially, so start/done pair up.
    started_at: Optional[float] = None
    busy_seconds: float = 0.0
    units_done: int = 0
    #: Worker-measured stage seconds, summed over the worker's units.
    prepare_seconds: float = 0.0
    execute_seconds: float = 0.0
    #: OpenBLAS threads the worker runs with (``None``: no setter found).
    blas_threads: Optional[int] = None
    #: The worker's own peak resident set in MB, as of its last unit.
    peak_rss_mb: Optional[float] = None


class _QueueLogHandler(logging.Handler):
    """Forwards worker-side log records over the pool's result queue.

    A ``QueueHandler``-style relay: the worker serialises only what the
    orchestrator needs (logger name, level, rendered message) so records
    survive pickling regardless of their args, and a failing queue must
    never take down the worker — logging is diagnostic, units are the
    product.
    """

    def __init__(self, worker_id: int, result_queue: "mp.queues.Queue") -> None:
        super().__init__()
        self._worker_id = worker_id
        self._result_queue = result_queue

    def emit(self, record: logging.LogRecord) -> None:
        """Ship one record to the orchestrator (best-effort)."""
        try:
            self._result_queue.put(
                (
                    "log",
                    self._worker_id,
                    record.name,
                    record.levelno,
                    record.getMessage(),
                )
            )
        except Exception:  # noqa: BLE001 - logging must never kill a worker
            pass


def _install_log_relay(
    worker_id: int, result_queue: "mp.queues.Queue"
) -> None:
    """Route this worker's ``repro.*`` logging through the result queue.

    Fork-inherited console handlers are removed first — without this,
    worker records would print directly to the orchestrator's inherited
    stderr *and* arrive over the queue, duplicating every line.
    ``SOFTSNN_LOG_LEVEL`` is honored worker-side so debug records are
    produced at all before the relay forwards them.
    """
    root = get_logger()
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.addHandler(_QueueLogHandler(worker_id, result_queue))
    level = env_log_level()
    if level is not None:
        root.setLevel(level)
    root.propagate = False


def _pin_blas_to_one_thread() -> Optional[int]:
    """Set the loaded OpenBLAS to one thread; return its thread count.

    The library is located through ``/proc/self/maps`` and driven through
    its own setter, so only the calling process changes.  Returns ``None``
    (and changes nothing) when no OpenBLAS thread setter is loaded — other
    BLAS builds, or platforms without ``/proc``.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
        libraries = [ctypes.CDLL(p) for p in sorted(paths) if "openblas" in p]
    except OSError:
        return None
    for library in libraries:
        for setter_name, getter_name in _OPENBLAS_THREAD_SYMBOLS:
            setter = getattr(library, setter_name, None)
            getter = getattr(library, getter_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter(1)
                return getter()
    return None


def _worker_assets(
    context: ExperimentContext,
    cache: Dict[str, Tuple[TrainedModel, Dataset, List[object]]],
) -> Tuple[TrainedModel, Dataset, List[object]]:
    """Build (and cache) one experiment's worker-side assets."""
    if context.experiment_key not in cache:
        model = TrainedModel.load(context.model_path)
        techniques = [
            TechniqueSpec.from_dict(spec).build()
            for spec in context.technique_specs
        ]
        cache[context.experiment_key] = (model, context.dataset, techniques)
    return cache[context.experiment_key]


def _worker_main(
    worker_id: int,
    contexts: Dict[str, ExperimentContext],
    task_queue: "mp.queues.Queue",
    result_queue: "mp.queues.Queue",
) -> None:
    """Worker loop: receive units, stream results back.

    *contexts* arrives once, as a process argument, and covers every
    experiment the campaign's units may name.  The worker ignores
    ``SIGINT`` so a ``KeyboardInterrupt`` in the orchestrator does not race
    its cleanup: the orchestrator keeps control and shuts the pool down
    through sentinels/terminate.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    blas_threads = _pin_blas_to_one_thread()
    _install_log_relay(worker_id, result_queue)
    cache: Dict[str, Tuple[TrainedModel, Dataset, List[object]]] = {}
    crash_unit = os.environ.get(_CRASH_UNIT_ENV)
    while True:
        task: Optional[_UnitTask] = task_queue.get()
        if task is None:
            break
        result_queue.put(("start", worker_id, task.unit_id, blas_threads))
        if crash_unit is not None and crash_unit == str(task.unit_id):
            # Flush the "start" ack before dying so the orchestrator
            # reliably learns which unit the crash interrupted.
            result_queue.close()
            result_queue.join_thread()
            os._exit(3)
        _LOGGER.debug(
            "executing unit %d (%d cells, experiment %s)",
            task.unit_id,
            len(task.cells),
            task.experiment_key,
        )
        try:
            model, dataset, techniques = _worker_assets(
                contexts[task.experiment_key], cache
            )
            cells = [SweepCell.from_dict(data) for data in task.cells]
            began = time.perf_counter()
            # Looked up as this module's global at call time, so wrappers
            # of ``repro.eval.pool.prepare_unit_inputs`` see the call.
            inputs = prepare_unit_inputs(cells, model, dataset)
            prepared = time.perf_counter()
            results = execute_cell_group(
                cells, model, dataset, techniques, inputs=inputs
            )
            records = [result.to_dict() for result in results]
            stage_seconds = (prepared - began, time.perf_counter() - prepared)
            # ru_maxrss is in KiB on Linux.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result_queue.put(
                ("done", worker_id, task.unit_id, records, *stage_seconds, peak_rss_mb)
            )
        except Exception:  # noqa: BLE001 - forwarded to the orchestrator
            result_queue.put(
                ("error", worker_id, task.unit_id, traceback.format_exc())
            )


def _describe_unit(unit: Sequence[SweepCell]) -> str:
    """Human-readable identity of a unit for error messages and logs."""
    cell_ids = ", ".join(cell.cell_id for cell in unit)
    return f"experiment {unit[0].experiment_key}: [{cell_ids}]"


def execute_units_pooled(
    units: Sequence[Sequence[SweepCell]],
    assets: Dict[str, Tuple[TrainedModel, Dataset, List[object]]],
    model_paths: Dict[str, str],
    technique_specs: Sequence[TechniqueSpec],
    n_workers: int,
    on_result: Callable[[CellResult], None],
) -> Optional[Dict[str, object]]:
    """Execute units on warm persistent workers, streaming results back.

    Returns a pool-statistics dict (``None`` for an empty unit list):
    worker count, wall seconds, per-worker busy time / utilization / unit
    counts / worker-measured prepare and execute seconds / OpenBLAS
    threads / peak resident set, and crash and serial-retry totals.  The
    campaign embeds it in
    :meth:`repro.eval.campaign.CampaignResult.run_report`.

    Parameters
    ----------
    units:
        Execution units (lists of cells sharing one (experiment, rate)
        coordinate), typically from
        :func:`repro.eval.campaign.group_cells`.
    assets:
        Orchestrator-side ``{experiment_key: (model, test_set,
        techniques)}`` — the test sets travel to the workers, and units
        of crashed workers re-execute serially against these assets.
    model_paths:
        ``{experiment_key: snapshot path}`` for worker-side model loading.
    technique_specs:
        Declarative technique specs workers rebuild in-process.
    n_workers:
        Number of persistent worker processes to spawn (capped at the
        number of units).
    on_result:
        Callback invoked with every finished :class:`CellResult`, in
        completion order.

    Raises
    ------
    UnitExecutionError
        When a unit raises inside a worker (deterministic failures would
        fail serially too, so no retry), or when a crashed worker's unit
        fails its one serial retry.
    """
    units = [list(unit) for unit in units]
    if not units:
        return None
    n_workers = max(1, min(n_workers, len(units)))
    began = time.perf_counter()
    stats: Dict[str, object] = {
        "n_workers": n_workers,
        "crashes": 0,
        "serial_retries": 0,
    }

    specs = tuple(spec.to_dict() for spec in technique_specs)
    contexts = {
        key: ExperimentContext(
            experiment_key=key,
            model_path=model_paths[key],
            dataset=assets[key][1],
            technique_specs=specs,
        )
        for key in sorted({unit[0].experiment_key for unit in units})
    }
    ctx = mp.get_context()
    result_queue = ctx.Queue()
    workers: List[_WorkerState] = []
    done: set = set()
    # Largest first: by cell count, then by fault rate.  At equal cell
    # counts a higher fault rate is the costlier unit (fewer rows
    # deduplicate, more synapses are bounded, more faulty resets force
    # latch re-simulations), so starting those first keeps the heavy units
    # of a sweep off the tail of the run.
    pending = collections.deque(
        sorted(
            range(len(units)),
            key=lambda i: (-len(units[i]), -(units[i][0].fault_rate or 0.0)),
        )
    )

    try:
        for worker_id in range(n_workers):
            task_queue = ctx.Queue()
            process = ctx.Process(
                target=_worker_main,
                args=(worker_id, contexts, task_queue, result_queue),
                daemon=True,
            )
            process.start()
            workers.append(_WorkerState(process=process, task_queue=task_queue))

        def update_gauges() -> None:
            """Refresh the live busy/queue gauges (progress line reads them)."""
            _POOL_QUEUE_DEPTH.set(
                len(pending) + sum(len(w.in_flight) for w in workers if w.alive)
            )
            _POOL_WORKERS_BUSY.set(
                sum(
                    1
                    for w in workers
                    if w.alive and w.started_unit is not None
                )
            )

        def dispatch() -> None:
            """Deal pending units round-robin, ``_MAX_IN_FLIGHT`` per worker."""
            while pending:
                open_workers = [
                    w
                    for w in workers
                    if w.alive and len(w.in_flight) < _MAX_IN_FLIGHT
                ]
                if not open_workers:
                    return
                for worker in open_workers[: len(pending)]:
                    index = pending.popleft()
                    unit = units[index]
                    task = _UnitTask(
                        unit_id=index,
                        experiment_key=unit[0].experiment_key,
                        cells=tuple(cell.to_dict() for cell in unit),
                    )
                    worker.task_queue.put(task)
                    worker.in_flight.append(index)

        def run_serially(index: int, reason: str) -> None:
            """Serial (orchestrator-side) execution of one unit."""
            unit = units[index]
            stats["serial_retries"] += 1
            _POOL_RETRIES.inc()
            _LOGGER.warning(
                "campaign pool: executing %s serially (%s)",
                _describe_unit(unit),
                reason,
            )
            model, dataset, techniques = assets[unit[0].experiment_key]
            try:
                results = execute_cell_group(unit, model, dataset, techniques)
            except Exception as error:
                raise UnitExecutionError(
                    f"unit {_describe_unit(unit)} failed its serial retry "
                    f"after a worker crash: {error}"
                ) from error
            for result in results:
                on_result(result)
            done.add(index)

        def handle_dead_worker(worker: _WorkerState) -> None:
            """Recover a crashed worker's started and queued units."""
            worker.alive = False
            stats["crashes"] += 1
            _POOL_CRASHES.inc()
            crashed = worker.started_unit
            requeued = [
                index
                for index in worker.in_flight
                if index not in done and index != crashed
            ]
            pending.extendleft(reversed(requeued))
            worker.in_flight = []
            dispatch()
            if crashed is not None and crashed not in done:
                # The unit the worker was executing when it died gets one
                # serial retry, as promised in the module docs.
                run_serially(
                    crashed,
                    f"worker {workers.index(worker)} died mid-unit "
                    f"(exit code {worker.process.exitcode})",
                )
            if not any(w.alive for w in workers):
                while pending:
                    run_serially(pending.popleft(), "no surviving workers")

        dispatch()
        update_gauges()

        while len(done) < len(units):
            try:
                message = result_queue.get(timeout=0.25)
            except queue_module.Empty:
                for worker in workers:
                    if worker.alive and not worker.process.is_alive():
                        handle_dead_worker(worker)
                        update_gauges()
                continue
            if message[0] == "log":
                # A relayed worker-side log record: re-emit it on the
                # orchestrator's logger of the same name, tagged with the
                # worker id.  Handled before the positional unpack below —
                # log messages carry no unit index.
                _, log_worker_id, logger_name, levelno, text = message
                logging.getLogger(logger_name).log(
                    levelno, "[worker %d] %s", log_worker_id, text
                )
                continue
            kind, worker_id, index = message[0], message[1], message[2]
            worker = workers[worker_id]
            if kind == "start":
                worker.started_unit = index
                worker.started_at = time.perf_counter()
                worker.blas_threads = message[3]
                update_gauges()
                continue
            if index in done:
                # A late message for a unit already recovered serially.
                continue
            if kind == "error":
                raise UnitExecutionError(
                    f"unit {_describe_unit(units[index])} failed in "
                    f"worker {worker_id}:\n{message[3]}"
                )
            for record in message[3]:
                on_result(CellResult.from_dict(record))
            done.add(index)
            worker.prepare_seconds += message[4]
            worker.execute_seconds += message[5]
            worker.peak_rss_mb = message[6]
            _POOL_UNIT_STAGE_SECONDS.labels(stage="prepare").observe(message[4])
            _POOL_UNIT_STAGE_SECONDS.labels(stage="execute").observe(message[5])
            if index in worker.in_flight:
                worker.in_flight.remove(index)
            if worker.started_unit == index:
                worker.started_unit = None
                if worker.started_at is not None:
                    elapsed = time.perf_counter() - worker.started_at
                    worker.started_at = None
                    worker.busy_seconds += elapsed
                    _POOL_UNIT_SECONDS.observe(elapsed)
            worker.units_done += 1
            dispatch()
            update_gauges()
    finally:
        for worker in workers:
            if worker.alive and worker.process.is_alive():
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        for worker in workers:
            worker.task_queue.cancel_join_thread()
            worker.task_queue.close()
        result_queue.cancel_join_thread()
        result_queue.close()
        _POOL_WORKERS_BUSY.set(0)
        _POOL_QUEUE_DEPTH.set(0)

    wall = time.perf_counter() - began
    stats["wall_seconds"] = round(wall, 6)
    stats["workers"] = [
        {
            "units": worker.units_done,
            "busy_seconds": round(worker.busy_seconds, 6),
            "utilization": (
                round(worker.busy_seconds / wall, 4) if wall > 0 else 0.0
            ),
            "prepare_s": round(worker.prepare_seconds, 6),
            "execute_s": round(worker.execute_seconds, 6),
            "blas_threads": worker.blas_threads,
            "peak_rss_mb": (
                None if worker.peak_rss_mb is None else round(worker.peak_rss_mb, 1)
            ),
        }
        for worker in workers
    ]
    return stats
