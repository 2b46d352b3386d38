"""The online classifier service: registry + schedulers + HTTP front end.

:class:`SoftSNNService` is the programmatic service object: it resolves a
request to a registered model and pushes every sample through the warm
pipeline of the requested ``(model, mode)`` pair — a
:class:`~repro.serve.modes.ServingSession` and the
:class:`~repro.serve.scheduler.MicroBatchScheduler` that drives it, built
lazily.  The pipelines are the service's only warm-session cache: at most
:data:`MAX_WARM_PIPELINES` are kept (least recently used retired first),
and each is reused only while the model's snapshot checksums are the ones
it was built from.  The HTTP layer on top is pure stdlib
(:class:`http.server.ThreadingHTTPServer`):

* ``POST /classify`` — classify one or many images, in any mode;
* ``GET  /models``   — registry listing with warm models and modes;
* ``GET  /healthz``  — liveness probe;
* ``GET  /metrics``  — request counts, batch-size histogram, latency
  percentiles, live queue depths.

The server speaks HTTP/1.1 keep-alive with Nagle's algorithm off, so a
client that keeps its connection open pays no per-request connect or
delayed-ACK cost.  :class:`ServiceClient` speaks that HTTP API over
:mod:`http.client`, keeping one persistent connection per calling thread;
:class:`InProcessClient` exposes the same interface directly on a service
object so tests and the load generator can exercise the scheduler without
socket overhead.

Requests are deterministic: each sample is encoded from its own seed
(client-provided, or derived from a service counter), so a served
prediction is reproducible as ``(model, mode, image, seed)`` regardless of
how the scheduler happened to batch it — see :mod:`repro.serve.modes`.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.obs import metrics as _obs
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE
from repro.obs.trace import span
from repro.serve.modes import ServingMode, ServingSession, build_session
from repro.serve.registry import (
    ModelNotFoundError,
    ModelRegistry,
    RegistryError,
    SnapshotEntry,
)
from repro.serve.scheduler import MicroBatchScheduler
from repro.snn.training import TrainedModel
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "ServiceConfig",
    "ClassifyResult",
    "SoftSNNService",
    "ServiceServer",
    "ServiceClient",
    "InProcessClient",
]

_LOGGER = get_logger("serve.service")

#: Warm ``(model, mode)`` pipelines kept; the least recently used beyond
#: that is retired (its scheduler drained and stopped).
MAX_WARM_PIPELINES = 8
#: Per-sample latencies kept for the ``/metrics`` percentiles.
LATENCY_WINDOW = 4096
#: Root of the encoding seeds derived for requests that send none.
REQUEST_SEED_ROOT = 2022


def _request_seed(seed: Any) -> int:
    """Validate one client-supplied encoding seed (a non-negative integer).

    Checked before anything is submitted, so a bad seed fails only its own
    classify call, never the micro-batch it would have been coalesced into.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seeds must be non-negative integers, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class ServiceConfig:
    """Settings of one service instance (the ``softsnn-serve run`` flags).

    ``models_dir`` is the snapshot directory the service's registry scans.
    ``max_batch_size`` is the micro-batch ceiling; ``None`` (default)
    means :data:`repro.snn.kernels.DEFAULT_BATCH_SIZE`.  ``max_delay_ms``
    is the micro-batching latency budget: a request waits at most this
    long for co-batched company before its batch is flushed (and a batch
    whose arrival stream went idle for a quarter of it is flushed early).
    ``default_fault_rate`` is the fault rate of ``faulty`` and
    ``protected`` requests that do not spell out their own; their fault
    seed defaults to :data:`repro.serve.modes.DEFAULT_FAULT_SEED`.
    """

    models_dir: Union[str, Path] = "models"
    max_batch_size: Optional[int] = None
    max_delay_ms: float = 5.0
    default_fault_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch_size is not None and self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")


@dataclass
class ClassifyResult:
    """Outcome of one classify call (possibly covering several samples)."""

    model: str
    mode: Dict[str, Any]
    predictions: List[int]
    seeds: List[int]
    latencies_ms: List[float]

    def to_dict(self) -> Dict[str, Any]:
        """The JSON body ``POST /classify`` returns."""
        return {
            "model": self.model,
            "mode": self.mode,
            "predictions": list(self.predictions),
            "seeds": list(self.seeds),
            "latencies_ms": [round(value, 3) for value in self.latencies_ms],
        }


class _ServiceMetrics:
    """Thread-safe request counters and the last :data:`LATENCY_WINDOW` latencies.

    Counters are mirrored into the shared observability registry
    (:mod:`repro.obs.metrics`) so ``GET /metrics?format=prometheus`` can
    expose them alongside the rest of the system's telemetry; the JSON
    ``/metrics`` body keeps reading the authoritative in-object state, so
    its keys and values are unchanged from earlier releases.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies: List[float] = []
        self.requests_total = 0
        self.errors_total = 0
        self.requests_by_mode: Dict[str, int] = {}
        self.obs_registry = obs_registry = _obs.get_registry()
        self._obs_requests = obs_registry.counter(
            "softsnn_serve_requests_total",
            "Classified samples, by serving mode.",
            labels=("mode",),
        )
        self._obs_errors = obs_registry.counter(
            "softsnn_serve_errors_total", "Failed classify requests."
        )
        self._obs_latency = obs_registry.histogram(
            "softsnn_serve_latency_ms",
            "Per-sample classify latency in milliseconds.",
            buckets=_obs.log_buckets(0.01, 10000.0, 4),
        )
        self._obs_connections = obs_registry.counter(
            "softsnn_serve_connections_total", "HTTP connections accepted."
        )

    def record(self, mode_kind: str, latencies_ms: Sequence[float]) -> None:
        with self._lock:
            self.requests_total += len(latencies_ms)
            self.requests_by_mode[mode_kind] = self.requests_by_mode.get(
                mode_kind, 0
            ) + len(latencies_ms)
            self._latencies.extend(latencies_ms)
            if len(self._latencies) > LATENCY_WINDOW:
                del self._latencies[: len(self._latencies) - LATENCY_WINDOW]
        if _obs.enabled():
            self._obs_requests.labels(mode=mode_kind).inc(len(latencies_ms))
            child = self._obs_latency.labels()
            for value in latencies_ms:
                child.observe(value)

    def record_error(self) -> None:
        with self._lock:
            self.errors_total += 1
        if _obs.enabled():
            self._obs_errors.inc()

    def record_connection(self) -> None:
        if _obs.enabled():
            self._obs_connections.inc()

    def latency_summary(self) -> Dict[str, float]:
        with self._lock:
            window = list(self._latencies)
        if not window:
            return {
                "count": 0,
                "mean_ms": 0.0,
                "p50_ms": 0.0,
                "p90_ms": 0.0,
                "p99_ms": 0.0,
                "max_ms": 0.0,
                "window_size": LATENCY_WINDOW,
                "samples": 0,
            }
        # np.percentile matches the load generator's report, so /metrics
        # and perf_serving.json percentiles are directly comparable.
        values = np.asarray(window, dtype=np.float64)
        return {
            "count": len(window),
            "mean_ms": round(float(values.mean()), 3),
            "p50_ms": round(float(np.percentile(values, 50)), 3),
            "p90_ms": round(float(np.percentile(values, 90)), 3),
            "p99_ms": round(float(np.percentile(values, 99)), 3),
            "max_ms": round(float(values.max()), 3),
            "window_size": LATENCY_WINDOW,
            "samples": len(window),
        }


@dataclass(frozen=True)
class _Pipeline:
    """A warm ``(model, mode)`` session, its scheduler, and its model's checksums."""

    checksums: Dict[str, str]
    session: ServingSession
    scheduler: MicroBatchScheduler


class SoftSNNService:
    """Serve registered SoftSNN models through adaptive micro-batching.

    Parameters
    ----------
    config:
        Service settings; ``config.models_dir`` is the directory of the
        service's :class:`~repro.serve.registry.ModelRegistry`.  Register
        models through :meth:`register_model`.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.registry = ModelRegistry(self.config.models_dir)
        self.metrics = _ServiceMetrics()
        self._pipelines: "OrderedDict[Tuple[str, Tuple], _Pipeline]" = OrderedDict()
        self._pipeline_lock = threading.Lock()
        self._seed_lock = threading.Lock()
        self._seed_factory = SeedSequenceFactory(root_seed=REQUEST_SEED_ROOT)
        self._seed_counter = 0
        self._started_at = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------------ #
    # model management
    # ------------------------------------------------------------------ #
    def register_model(
        self, model: TrainedModel, name: str, workload: Optional[str] = None
    ) -> Dict[str, Any]:
        """Snapshot *model* into the registry and return its entry."""
        return self.registry.register(model, name, workload=workload).to_dict()

    def resolve_mode(self, mode: Any) -> ServingMode:
        """Normalise a request's mode spec against the service defaults."""
        return ServingMode.from_request(
            mode, default_fault_rate=self.config.default_fault_rate
        )

    def _pipeline(self, entry: SnapshotEntry, mode: ServingMode) -> _Pipeline:
        """The warm pipeline serving *entry*'s model in *mode*.

        A cached pipeline is reused while its checksums are *entry*'s.
        Otherwise a session is built, outside the lock, from the model the
        registry decodes together with its entry, so a pipeline never
        serves a model other than the one whose checksums it records.  A
        racing build adopts a matching pipeline inserted first; a stale one
        is retired, and so is the least recently used beyond
        :data:`MAX_WARM_PIPELINES`.
        """
        key = (entry.name, mode.cache_key)
        with self._pipeline_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            cached = self._pipelines.get(key)
            if cached is not None and cached.checksums == entry.checksums:
                self._pipelines.move_to_end(key)
                return cached
        source, model = self.registry.load_with_entry(entry.name)
        session = build_session(model, mode)
        retired: List[MicroBatchScheduler] = []
        try:
            with self._pipeline_lock:
                if self._closed:
                    raise RuntimeError("service is closed")
                cached = self._pipelines.pop(key, None)
                if cached is not None and cached.checksums == source.checksums:
                    self._pipelines[key] = cached
                    return cached
                if cached is not None:
                    retired.append(cached.scheduler)

                def run_batch(payloads: List[Tuple[np.ndarray, int]]) -> List[int]:
                    predictions, _ = session.classify_batch(
                        [payload[0] for payload in payloads],
                        [payload[1] for payload in payloads],
                    )
                    return [int(value) for value in predictions]

                pipeline = _Pipeline(
                    checksums=source.checksums,
                    session=session,
                    scheduler=MicroBatchScheduler(
                        run_batch,
                        max_batch_size=self.config.max_batch_size,
                        max_delay=self.config.max_delay_ms / 1000.0,
                        name=f"{entry.name}:{mode.label}",
                    ),
                )
                self._pipelines[key] = pipeline
                while len(self._pipelines) > MAX_WARM_PIPELINES:
                    _, evicted = self._pipelines.popitem(last=False)
                    retired.append(evicted.scheduler)
            return pipeline
        finally:
            # Draining a retired scheduler can take as long as its queued
            # batches; do it outside the lock so other models keep serving.
            for scheduler in retired:
                scheduler.close()

    def _derive_seeds(self, name: str, count: int) -> List[int]:
        with self._seed_lock:
            start = self._seed_counter
            self._seed_counter += count
        return [
            self._seed_factory.seed_for(f"serve/{name}/request/{start + offset}")
            for offset in range(count)
        ]

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def classify(
        self,
        images: Any,
        model: Optional[str] = None,
        workload: Optional[str] = None,
        n_neurons: Optional[int] = None,
        mode: Any = None,
        seeds: Optional[Sequence[int]] = None,
        timeout: float = 60.0,
    ) -> ClassifyResult:
        """Classify one or many images through the micro-batching path.

        *images* may be a single image (1-D of ``n_inputs`` pixels or 2-D
        ``height x width``) or a batch (list/array of such images).  Each
        sample becomes one independent scheduler request, so a multi-image
        call simply pre-fills the micro-batch.  Per-sample *seeds*
        (non-negative integers, validated before any sample is submitted)
        make the predictions reproducible; omitted seeds are derived from
        the service's request counter.
        """
        try:
            entry = self.registry.resolve(
                name=model, workload=workload, n_neurons=n_neurons
            )
        except ModelNotFoundError:
            # Maybe the snapshot was dropped into the directory after the
            # last scan — re-discover once before giving up.
            self.registry.refresh()
            entry = self.registry.resolve(
                name=model, workload=workload, n_neurons=n_neurons
            )
        serving_mode = self.resolve_mode(mode)
        pipeline = self._pipeline(entry, serving_mode)
        flats = self._as_flat_images(images, pipeline.session.n_inputs)
        if seeds is None:
            request_seeds = self._derive_seeds(entry.name, len(flats))
        else:
            request_seeds = [_request_seed(seed) for seed in seeds]
            if len(request_seeds) != len(flats):
                raise ValueError(
                    f"got {len(request_seeds)} seeds for {len(flats)} images"
                )

        submitted = time.monotonic()
        try:
            with span(
                "serve.classify",
                model=entry.name,
                mode=serving_mode.kind,
                n_images=len(flats),
            ):
                futures = [
                    pipeline.scheduler.submit((flat, seed))
                    for flat, seed in zip(flats, request_seeds)
                ]
                predictions: List[int] = []
                latencies: List[float] = []
                for future in futures:
                    predictions.append(int(future.result(timeout=timeout)))
                    latencies.append(1000.0 * (time.monotonic() - submitted))
        except Exception:
            self.metrics.record_error()
            raise
        self.metrics.record(serving_mode.kind, latencies)
        return ClassifyResult(
            model=entry.name,
            mode=serving_mode.to_dict(),
            predictions=predictions,
            seeds=request_seeds,
            latencies_ms=latencies,
        )

    @staticmethod
    def _as_flat_images(images: Any, n_inputs: int) -> List[np.ndarray]:
        array = np.asarray(images, dtype=np.float64)
        if array.ndim == 1:
            array = array[np.newaxis, :]
        elif array.ndim == 2 and array.shape != (1, n_inputs):
            # A single height x width image, not a batch of flat rows.
            if array.size == n_inputs:
                array = array.reshape(1, n_inputs)
        if array.ndim == 3:
            array = array.reshape(array.shape[0], -1)
        if array.ndim != 2 or array.shape[1] != n_inputs:
            raise ValueError(
                f"images must flatten to (n, {n_inputs}), got input of shape "
                f"{np.asarray(images).shape}"
            )
        return [row for row in array]

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def models(self) -> List[Dict[str, Any]]:
        """Registry listing with warm modes (the body of ``GET /models``).

        Re-scans the snapshot directory first, so models dropped in (or
        atomically re-trained in place) while the service runs become
        visible — and their stale warm model dropped — without a restart.
        ``warm_modes`` lists the modes of the warm pipelines built from each
        entry's current checksums, least recently used first.
        """
        self.registry.refresh()
        listing = self.registry.describe()
        with self._pipeline_lock:
            pipelines = list(self._pipelines.items())
        for item in listing:
            item["warm_modes"] = [
                pipeline.session.mode.to_dict()
                for (name, _), pipeline in pipelines
                if name == item["name"] and pipeline.checksums == item["checksums"]
            ]
        return listing

    def health(self) -> Dict[str, Any]:
        """Liveness summary (the body of ``GET /healthz``)."""
        return {
            "status": "ok",
            "models": self.registry.names(),
            "uptime_seconds": round(time.monotonic() - self._started_at, 1),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Counters, latency percentiles, batching behaviour, queue depths."""
        schedulers = self._schedulers()
        scheduler_stats = {
            scheduler.name: scheduler.stats_snapshot().to_dict()
            for scheduler in schedulers
        }
        queue_depths = {
            scheduler.name: scheduler.queue_depth for scheduler in schedulers
        }
        merged_histogram: Dict[str, int] = {}
        occupancy_total = 0
        batch_total = 0
        for stats in scheduler_stats.values():
            for size, count in stats["batch_size_histogram"].items():
                merged_histogram[size] = merged_histogram.get(size, 0) + count
                occupancy_total += int(size) * count
                batch_total += count
        return {
            "requests_total": self.metrics.requests_total,
            "requests_by_mode": dict(self.metrics.requests_by_mode),
            "errors_total": self.metrics.errors_total,
            "latency": self.metrics.latency_summary(),
            "batch_size_histogram": {
                size: merged_histogram[size]
                for size in sorted(merged_histogram, key=int)
            },
            "mean_batch_size": round(
                occupancy_total / batch_total if batch_total else 0.0, 3
            ),
            "queue_depth": queue_depths,
            "schedulers": scheduler_stats,
            "registry": {
                "models": len(self.registry),
                "warm_models": self.registry.warm_model_count,
                "warm_sessions": len(schedulers),
            },
        }

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition (``GET /metrics?format=prometheus``).

        Request counters and the latency histogram stream into the shared
        observability registry as requests are served; scheduler, registry,
        and uptime figures are synchronised into it at scrape time (their
        authoritative state lives in the scheduler objects), then the whole
        registry — including kernel and campaign metrics recorded by this
        process — is rendered in text format 0.0.4.
        """
        registry = self.metrics.obs_registry
        batches = registry.counter(
            "softsnn_serve_batches_total",
            "Micro-batches flushed, by scheduler and flush reason.",
            labels=("scheduler", "flush"),
        )
        queue_depth = registry.gauge(
            "softsnn_serve_queue_depth",
            "Requests currently queued, per scheduler.",
            labels=("scheduler",),
        )
        registry_gauge = registry.gauge(
            "softsnn_serve_registry_entries",
            "Model registry occupancy, by cache tier.",
            labels=("tier",),
        )
        uptime = registry.gauge(
            "softsnn_serve_uptime_seconds", "Seconds since service start."
        )
        schedulers = self._schedulers()
        for scheduler in schedulers:
            stats = scheduler.stats_snapshot()
            for reason, count in (
                ("full", stats.flush_full),
                ("deadline", stats.flush_deadline),
                ("idle", stats.flush_idle),
                ("close", stats.flush_close),
            ):
                batches.labels(scheduler=scheduler.name, flush=reason).set_to(count)
            queue_depth.labels(scheduler=scheduler.name).set(scheduler.queue_depth)
        registry_gauge.labels(tier="models").set(len(self.registry))
        registry_gauge.labels(tier="warm_models").set(self.registry.warm_model_count)
        registry_gauge.labels(tier="warm_sessions").set(len(schedulers))
        uptime.set(round(time.monotonic() - self._started_at, 3))
        return registry.render_prometheus()

    def _schedulers(self) -> List[MicroBatchScheduler]:
        """The warm pipelines' schedulers, least recently used first."""
        with self._pipeline_lock:
            return [pipeline.scheduler for pipeline in self._pipelines.values()]

    def close(self) -> None:
        """Drain and stop every scheduler; further classifies are refused."""
        with self._pipeline_lock:
            self._closed = True
            schedulers = [pipeline.scheduler for pipeline in self._pipelines.values()]
            self._pipelines.clear()
        for scheduler in schedulers:
            scheduler.close()

    def __enter__(self) -> "SoftSNNService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# HTTP front end
# ---------------------------------------------------------------------- #
class _RequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the service object."""

    server: "_ServiceHTTPServer"
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes; with Nagle's algorithm on, the
    # second waits for the client's delayed ACK on a kept-alive connection.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        if parts.path == "/healthz":
            self._send_json(200, service.health())
        elif parts.path == "/models":
            self._send_json(200, {"models": service.models()})
        elif parts.path == "/metrics":
            formats = query.get("format", ["json"])
            if formats[-1] == "prometheus":
                self._send_text(
                    200, service.metrics_prometheus(), PROMETHEUS_CONTENT_TYPE
                )
            elif formats[-1] == "json":
                self._send_json(200, service.metrics_snapshot())
            else:
                self._send_json(
                    400, {"error": f"unknown metrics format: {formats[-1]}"}
                )
        else:
            self._send_json(404, {"error": f"no such endpoint: {parts.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        # The body is read before routing: bytes left unread on a kept-alive
        # connection would be parsed as the next request.
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                raise ValueError(length)
        except ValueError:
            self.close_connection = True
            self._send_json(400, {"error": "malformed Content-Length"})
            return
        body = self.rfile.read(length)
        if self.path != "/classify":
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        service = self.server.service
        try:
            payload = json.loads(body or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("request body must be a JSON object")
            images = payload.get("images", payload.get("image"))
            if images is None:
                raise ValueError("request must carry 'images' (or 'image')")
            seeds = payload.get("seeds")
            if seeds is None and "seed" in payload:
                seeds = [payload["seed"]]
            result = service.classify(
                images,
                model=payload.get("model"),
                workload=payload.get("workload"),
                n_neurons=payload.get("n_neurons"),
                mode=payload.get("mode"),
                seeds=seeds,
            )
        except ModelNotFoundError as exc:
            self._send_json(404, {"error": str(exc)})
        except (ValueError, TypeError, RegistryError) as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - boundary of the HTTP layer
            _LOGGER.exception("unhandled error in /classify")
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send_json(200, result.to_dict())

    # ------------------------------------------------------------------ #
    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        self._send(status, json.dumps(body).encode("utf-8"), "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _send(self, status: int, encoded: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        _LOGGER.debug("%s - %s", self.address_string(), format % args)


class _ServiceHTTPServer(ThreadingHTTPServer):
    """Thread-per-connection server that can end its kept-alive connections."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: SoftSNNService) -> None:
        super().__init__(address, _RequestHandler)
        self.service = service
        self._connections: Set[socket.socket] = set()
        self._connections_changed = threading.Condition()

    def process_request(self, request: Any, client_address: Any) -> None:
        self.service.metrics.record_connection()
        with self._connections_changed:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        super().shutdown_request(request)
        with self._connections_changed:
            self._connections.discard(request)
            self._connections_changed.notify_all()

    def end_connections(self) -> None:
        """Stop reading from every open connection and wait for them to close.

        A handler thread waiting for a kept-alive client's next request sees
        end-of-stream and closes its connection; one mid-request still writes
        its response first.
        """
        with self._connections_changed:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # its handler is closing it already
            if not self._connections_changed.wait_for(
                lambda: not self._connections, timeout=10.0
            ):
                _LOGGER.warning(
                    "%d connection(s) still open after 10 s", len(self._connections)
                )


class ServiceServer:
    """Run a :class:`SoftSNNService` behind the stdlib HTTP server.

    ``port=0`` binds an ephemeral port; the resolved address is available
    as :attr:`url` once :meth:`start` returns, which is what the CI smoke
    check and the tests use to avoid port collisions.
    """

    def __init__(
        self,
        service: SoftSNNService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._httpd = _ServiceHTTPServer((host, port), service)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        """Bound host name."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """Bound (possibly ephemeral) port."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        """Start serving on a daemon thread and return self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="softsnn-serve-http", daemon=True
        )
        self._thread.start()
        _LOGGER.info("serving on %s", self.url)
        return self

    def stop(self) -> None:
        """Stop the HTTP loop, end open connections, drain the schedulers.

        A server that was never started has no loop to stop; its socket and
        service are still closed.
        """
        if self._thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.end_connections()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()

    def serve_forever(self) -> None:
        """Blocking variant used by the CLI foreground mode."""
        _LOGGER.info("serving on %s", self.url)
        try:
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()
            self._httpd.end_connections()
            self.service.close()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# ---------------------------------------------------------------------- #
# clients
# ---------------------------------------------------------------------- #
#: Failures that mean the server dropped an idle kept-alive connection.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class _ThreadConnection(http.client.HTTPConnection):
    """A client thread's connection; closed when its thread's locals are freed."""

    def __del__(self) -> None:
        self.close()


class ServiceClient:
    """HTTP client for the serving API (stdlib :mod:`http.client` only).

    Each calling thread keeps one persistent HTTP/1.1 connection, so threads
    may share one client; a thread's connection ends with the thread or at
    :meth:`close`.  A request that fails on a *reused* connection because
    the server dropped it (``RemoteDisconnected``, ``ConnectionResetError``
    or ``BrokenPipeError``) is sent once more on a fresh connection; any
    other failure, and any failure on a fresh connection, is raised.
    Statuses >= 400 raise :class:`RuntimeError` carrying the server's
    ``error`` detail.
    """

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"base_url must be an http:// URL, got {base_url!r}")
        self._host = parts.hostname
        self._port = parts.port or 80
        self._prefix = parts.path
        self._local = threading.local()

    def _connection(self) -> _ThreadConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _ThreadConnection(
                self._host, self._port, timeout=self.timeout
            )
            self._local.connection = connection
        return connection

    def _exchange(
        self,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        accept: str = "application/json",
    ) -> bytes:
        """Send one request on this thread's connection; return the body."""
        method, body, headers = "GET", None, {"Accept": accept}
        if payload is not None:
            method, body = "POST", json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        while True:
            reused = connection.sock is not None
            try:
                connection.request(method, self._prefix + path, body, headers)
                response = connection.getresponse()
                data = response.read()
                break
            except _STALE_CONNECTION:
                connection.close()
                if not reused:
                    raise
            except BaseException:
                connection.close()
                raise
        if response.status >= 400:
            try:
                detail = json.loads(data.decode("utf-8")).get("error", "")
            except Exception:  # noqa: BLE001 - best-effort error detail
                detail = ""
            raise RuntimeError(
                f"{self.base_url}{path} failed with HTTP {response.status}: "
                f"{detail or response.reason}"
            )
        return data

    def _request(
        self, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        return json.loads(self._exchange(path, payload).decode("utf-8"))

    def close(self) -> None:
        """Close the calling thread's connection (reopened on next use)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._request("/healthz")

    def models(self) -> List[Dict[str, Any]]:
        """``GET /models``."""
        return self._request("/models")["models"]

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``."""
        return self._request("/metrics")

    def metrics_text(self) -> str:
        """``GET /metrics?format=prometheus`` — the raw exposition text."""
        return self._exchange(
            "/metrics?format=prometheus", accept="text/plain"
        ).decode("utf-8")

    def classify(
        self,
        images: Any,
        model: Optional[str] = None,
        workload: Optional[str] = None,
        mode: Any = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        """``POST /classify`` for one or many images.

        *images* may be an array or a list whose elements are arrays or
        plain lists; arrays are converted for JSON, plain lists pass as is.
        """
        if isinstance(images, np.ndarray):
            images = images.tolist()
        else:
            images = [
                image.tolist() if isinstance(image, np.ndarray) else image
                for image in images
            ]
        payload: Dict[str, Any] = {"images": images}
        if model is not None:
            payload["model"] = model
        if workload is not None:
            payload["workload"] = workload
        if mode is not None:
            payload["mode"] = mode.to_dict() if isinstance(mode, ServingMode) else mode
        if seeds is not None:
            # Sent as given (numpy scalars as their Python values): the
            # server's seed check, not the client, rejects a bad seed.
            payload["seeds"] = [
                seed.item() if isinstance(seed, np.generic) else seed
                for seed in seeds
            ]
        return self._request("/classify", payload)


class InProcessClient:
    """The :class:`ServiceClient` interface bound directly to a service.

    Bypasses HTTP entirely — requests still flow through the registry,
    sessions and micro-batch schedulers, so the load generator and the perf
    bench measure the serving data path without socket noise.
    """

    def __init__(self, service: SoftSNNService) -> None:
        self.service = service

    def healthz(self) -> Dict[str, Any]:
        """See :meth:`ServiceClient.healthz`."""
        return self.service.health()

    def models(self) -> List[Dict[str, Any]]:
        """See :meth:`ServiceClient.models`."""
        return self.service.models()

    def metrics(self) -> Dict[str, Any]:
        """See :meth:`ServiceClient.metrics`."""
        return self.service.metrics_snapshot()

    def metrics_text(self) -> str:
        """See :meth:`ServiceClient.metrics_text`."""
        return self.service.metrics_prometheus()

    def classify(
        self,
        images: Any,
        model: Optional[str] = None,
        workload: Optional[str] = None,
        mode: Any = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        """See :meth:`ServiceClient.classify`."""
        return self.service.classify(
            images, model=model, workload=workload, mode=mode, seeds=seeds
        ).to_dict()
