"""Online inference serving: registry, micro-batching, fault-aware modes.

This package turns the offline reproduction into a running classifier
service (see ``README.md`` → *Serving quickstart*):

* :mod:`repro.serve.registry` — snapshot discovery with checksum
  validation and LRU-warm decoded models;
* :mod:`repro.serve.modes` — ``clean`` / ``faulty`` / ``protected``
  serving modes built from the paper's fault and mitigation machinery;
* :mod:`repro.serve.scheduler` — the adaptive micro-batching scheduler
  (max-batch-size / max-latency-deadline flushing, per-request futures);
* :mod:`repro.serve.service` — the service object (one warm session and
  scheduler per ``(model, mode)`` pair), stdlib HTTP front end
  (``POST /classify``, ``GET /models`` / ``/healthz`` / ``/metrics``) and
  the HTTP / in-process clients;
* :mod:`repro.serve.loadgen` — closed-loop multi-threaded load
  generation for the serving benchmarks.

The CLI lives in :mod:`repro.server` (installed as ``softsnn-serve``).
"""

from repro.serve.loadgen import LoadReport, run_closed_loop
from repro.serve.modes import MODE_KINDS, ServingMode, ServingSession, build_session
from repro.serve.registry import (
    ModelNotFoundError,
    ModelRegistry,
    RegistryError,
    SnapshotEntry,
    SnapshotIntegrityError,
)
from repro.serve.scheduler import MicroBatchScheduler, SchedulerStats
from repro.serve.service import (
    ClassifyResult,
    InProcessClient,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    SoftSNNService,
)

__all__ = [
    "MODE_KINDS",
    "ClassifyResult",
    "InProcessClient",
    "LoadReport",
    "MicroBatchScheduler",
    "ModelNotFoundError",
    "ModelRegistry",
    "RegistryError",
    "SchedulerStats",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "ServingMode",
    "ServingSession",
    "SnapshotEntry",
    "SnapshotIntegrityError",
    "SoftSNNService",
    "build_session",
    "run_closed_loop",
]
