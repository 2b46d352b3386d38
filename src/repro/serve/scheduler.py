"""Adaptive micro-batching: coalesce single requests into engine batches.

The inference engine (:mod:`repro.snn.engine`) gets its throughput
from amortising the weight matrix across the sample dimension — but an
online service receives samples one request at a time.  This module closes
that gap with the classic serving pattern: requests enter a thread-safe
queue, a single worker thread drains it into micro-batches under a

    *flush when ``max_batch_size`` requests are waiting, or when the oldest
    waiting request has been queued for ``max_delay``* — whichever happens
    first —

policy, runs the whole batch through the engine at once, and resolves one
:class:`concurrent.futures.Future` per request.  Small batches under light
load keep latency bounded by ``max_delay``; under heavy load the queue
fills to ``max_batch_size`` before the deadline and the scheduler converges
to full engine batches, which is where the ≥2x throughput over
one-request-one-call serving (``benchmarks/test_perf_serving.py``) comes
from.

A third, *adaptive* flush condition makes the policy efficient for
closed-loop clients: when the arrival stream has been idle for
``idle_grace`` (default ``max_delay / 4``), the waiting batch is flushed
early.  A fixed population of synchronous clients resubmits in a burst the
moment its previous batch resolves and then goes quiet until the next one —
without the idle flush every such cycle would sleep out the full
``max_delay`` deadline after the burst, capping throughput far below what
the engine can do.  ``idle_grace >= max_delay`` disables the heuristic and
restores the pure two-condition policy.

The scheduler is generic: it moves opaque payloads to a ``run_batch``
callable that must return one result per payload, in order.  Because every
batch is executed by the single worker thread, the callable needs no
internal locking — the serving layer exploits this by handing it a
:class:`~repro.serve.modes.ServingSession` bound method.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.obs import metrics as _obs
from repro.snn.kernels import DEFAULT_BATCH_SIZE
from repro.utils.logging import get_logger

__all__ = ["SchedulerStats", "MicroBatchScheduler"]

_LOGGER = get_logger("serve.scheduler")

# Batching wait, the first stage of a served request's latency budget
# (docs/observability.md).
_QUEUE_WAIT_MS = _obs.get_registry().histogram(
    "softsnn_serve_queue_wait_ms",
    "Per-request wait from enqueue to batch flush in milliseconds, by scheduler.",
    labels=("scheduler",),
    buckets=_obs.log_buckets(0.01, 10000.0, 4),
)

#: Signature of the batch executor: payloads in, one result per payload out.
BatchRunner = Callable[[List[Any]], Sequence[Any]]


@dataclass
class SchedulerStats:
    """Counters describing a scheduler's batching behaviour.

    ``batch_size_histogram`` maps flushed batch size to occurrence count;
    ``flush_full`` / ``flush_deadline`` / ``flush_idle`` / ``flush_close``
    split the flushes by the event that *actually* triggered them: a batch
    counts as ``flush_full`` only when it filled while the scheduler was
    open and its deadline had not yet expired — a full batch drained by
    :meth:`MicroBatchScheduler.close` counts as ``flush_close``, and one
    whose deadline expired during the final wait counts as
    ``flush_deadline`` even if arrivals filled it meanwhile.
    ``mean_batch_size`` is the mean occupancy of the flushed batches — the
    single number that tells you whether micro-batching is actually
    engaging under the offered load.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    flush_full: int = 0
    flush_deadline: int = 0
    flush_idle: int = 0
    flush_close: int = 0
    max_queue_depth: int = 0
    batch_size_histogram: Dict[int, int] = field(default_factory=dict)

    @property
    def n_batches(self) -> int:
        """Total number of flushed batches."""
        return (
            self.flush_full
            + self.flush_deadline
            + self.flush_idle
            + self.flush_close
        )

    @property
    def mean_batch_size(self) -> float:
        """Mean occupancy of the flushed batches (0.0 before any flush)."""
        total = sum(size * count for size, count in self.batch_size_histogram.items())
        batches = sum(self.batch_size_histogram.values())
        return total / batches if batches else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot for the metrics endpoint."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "n_batches": self.n_batches,
            "flush_full": self.flush_full,
            "flush_deadline": self.flush_deadline,
            "flush_idle": self.flush_idle,
            "flush_close": self.flush_close,
            "max_queue_depth": self.max_queue_depth,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_size_histogram": {
                str(size): count
                for size, count in sorted(self.batch_size_histogram.items())
            },
        }


@dataclass
class _Pending:
    payload: Any
    future: "Future[Any]"
    enqueued_at: float


class MicroBatchScheduler:
    """Thread-safe request queue with max-batch / max-delay flushing.

    Parameters
    ----------
    run_batch:
        Callable executing one micro-batch; receives the payload list and
        must return one result per payload, in order.  Called only from
        the scheduler's own worker thread.
    max_batch_size:
        Flush as soon as this many requests are waiting; ``None`` means
        :data:`repro.snn.kernels.DEFAULT_BATCH_SIZE`.  Batch composition
        never changes predictions — every request is classified from its
        own seed — so this is a pure throughput knob.
    max_delay:
        Flush when the oldest waiting request has been queued this long
        (seconds).  This bounds the latency cost a lightly loaded request
        pays for batching.
    idle_grace:
        Flush early when no new request has arrived for this long
        (seconds) while a batch is waiting — the adaptive heuristic for
        closed-loop clients (see the module docstring).  ``None`` defaults
        to ``max_delay / 4``; any value ``>= max_delay`` disables it.
    name:
        Label used in logs and metrics.
    """

    def __init__(
        self,
        run_batch: BatchRunner,
        max_batch_size: Optional[int] = None,
        max_delay: float = 0.005,
        idle_grace: Optional[float] = None,
        name: str = "scheduler",
    ) -> None:
        if max_batch_size is None:
            max_batch_size = DEFAULT_BATCH_SIZE
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if idle_grace is None:
            idle_grace = max_delay / 4.0
        if idle_grace < 0:
            raise ValueError(f"idle_grace must be >= 0, got {idle_grace}")
        self._run_batch = run_batch
        self.max_batch_size = int(max_batch_size)
        self.max_delay = float(max_delay)
        self.idle_grace = float(idle_grace)
        self.name = name
        self.stats = SchedulerStats()
        self._queue: Deque[_Pending] = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._last_enqueue = time.monotonic()
        self._queue_wait = _QUEUE_WAIT_MS.labels(scheduler=name)
        self._worker = threading.Thread(
            target=self._loop, name=f"microbatch-{name}", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    def submit(self, payload: Any) -> "Future[Any]":
        """Enqueue one request; the returned future resolves to its result.

        Parameters
        ----------
        payload:
            Opaque request object handed (inside a list, with its
            co-batched company) to the scheduler's ``run_batch`` callable.

        Returns
        -------
        concurrent.futures.Future
            Resolves to this request's entry of the batch result, or
            raises the batch's exception.

        Raises
        ------
        RuntimeError
            If the scheduler has been closed.
        """
        future: "Future[Any]" = Future()
        with self._wakeup:
            if self._closed:
                raise RuntimeError(f"scheduler {self.name!r} is closed")
            now = time.monotonic()
            self._queue.append(
                _Pending(payload=payload, future=future, enqueued_at=now)
            )
            self._last_enqueue = now
            self.stats.submitted += 1
            depth = len(self._queue)
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            self._wakeup.notify()
        return future

    @property
    def queue_depth(self) -> int:
        """Number of requests currently waiting (excludes the running batch)."""
        with self._lock:
            return len(self._queue)

    def stats_snapshot(self) -> SchedulerStats:
        """Consistent copy of the counters, safe to read while serving.

        The live :attr:`stats` object is mutated by the worker thread under
        the scheduler lock; reading its histogram without that lock (as a
        metrics endpoint would) can observe a dict mid-insert.  The
        snapshot copies everything under the lock.
        """
        with self._lock:
            return replace(
                self.stats,
                batch_size_histogram=dict(self.stats.batch_size_histogram),
            )

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting requests, drain the queue, and join the worker.

        Parameters
        ----------
        timeout:
            Seconds to wait for the worker thread to finish draining;
            a warning is logged (and the thread abandoned) on expiry.
        """
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify()
        self._worker.join(timeout=timeout)
        if self._worker.is_alive():  # pragma: no cover - drain stuck in engine
            _LOGGER.warning("scheduler %r worker did not drain in time", self.name)

    def __enter__(self) -> "MicroBatchScheduler":
        """Context-manager entry: the scheduler itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: drain and close the scheduler."""
        self.close()

    # ------------------------------------------------------------------ #
    def _loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if not self._queue:
                    return  # closed and drained
                # Gather until the batch fills, the oldest request's
                # deadline passes, or the arrival stream goes idle for the
                # grace period; a close flushes whatever is waiting.
                deadline = self._queue[0].enqueued_at + self.max_delay
                grace = self.idle_grace
                reason = None
                while len(self._queue) < self.max_batch_size and not self._closed:
                    now = time.monotonic()
                    if now >= deadline:
                        reason = "deadline"
                        break
                    if grace > 0 and now - self._last_enqueue >= grace:
                        reason = "idle"
                        break
                    timeout = deadline - now
                    if grace > 0:
                        timeout = min(
                            timeout, self._last_enqueue + grace - now
                        )
                    self._wakeup.wait(timeout=max(timeout, 1e-4))
                if reason is None:
                    # The gather loop ended on its own condition: attribute
                    # the flush to what actually triggered it.  A close
                    # drains whatever is queued (even full batches), and a
                    # deadline that expired during the last wait takes
                    # precedence over the queue having filled meanwhile —
                    # the batch would have flushed at that instant
                    # regardless of further arrivals.
                    if self._closed:
                        reason = "close"
                    elif time.monotonic() >= deadline:
                        reason = "deadline"
                    else:
                        reason = "full"
                count = min(len(self._queue), self.max_batch_size)
                batch = [self._queue.popleft() for _ in range(count)]
                flushed = time.monotonic()
                if reason == "full":
                    self.stats.flush_full += 1
                elif reason == "deadline":
                    self.stats.flush_deadline += 1
                elif reason == "idle":
                    self.stats.flush_idle += 1
                else:
                    self.stats.flush_close += 1
                self.stats.batch_size_histogram[count] = (
                    self.stats.batch_size_histogram.get(count, 0) + 1
                )
            if _obs.enabled():
                for item in batch:
                    self._queue_wait.observe(1000.0 * (flushed - item.enqueued_at))
            self._execute(batch)

    def _execute(self, batch: List[_Pending]) -> None:
        """Run one flushed batch outside the lock and resolve its futures."""
        try:
            results = self._run_batch([item.payload for item in batch])
        except Exception as exc:  # noqa: BLE001 - forwarded to every caller
            with self._lock:
                self.stats.failed += len(batch)
            for item in batch:
                item.future.set_exception(exc)
            return
        if len(results) != len(batch):
            error = RuntimeError(
                f"batch runner returned {len(results)} results "
                f"for {len(batch)} requests"
            )
            with self._lock:
                self.stats.failed += len(batch)
            for item in batch:
                item.future.set_exception(error)
            return
        with self._lock:
            self.stats.completed += len(batch)
        for item, result in zip(batch, results):
            item.future.set_result(result)
