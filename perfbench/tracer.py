"""Spans around the calls the benchmark's traced run makes into each layer.

The program is measured from outside: :func:`install_layers` replaces the
public functions and methods at each layer boundary with wrappers that
record a span (name, parent, start, end) in memory, and :meth:`Tracer.restore`
puts the originals back.  A layer's self time is its spans' duration minus
the part covered by their child spans, so the self times of all layers plus
the unattributed remainder add up to the traced wall time.

Kernels are wrapped where ``snn.engine`` and ``snn.synapse`` look them up,
the neuron-model ``advance`` on each registered model class.  Spans recorded
in campaign pool workers stay in those processes and are lost, which is why
the campaign is traced a second time with one in-process worker.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

#: Every layer of the time budget, in report order.  Layers a workload
#: does not reach report zero.  ``eval.pool`` and ``eval.campaign`` are the
#: pooled and the serial ``run_campaign`` calls: the pooled one's self time
#: is the orchestrator waiting on workers, net of input preparation and
#: store appends.  ``serve.http``/``serve.service`` split client latency by
#: the service latency each response reports.
BUDGET_LAYERS = (
    "eval.pool",
    "eval.campaign",
    "eval.campaign.prepare",
    "eval.store",
    "faults",
    "snn.encoding",
    "core.mitigation",
    "snn.engine",
    "snn.kernels.gemm",
    "snn.kernels.scale",
    "snn.kernels.advance",
    "snn.kernels.bounding",
    "snn.inference",
    "serve.http",
    "serve.service",
    "unattributed",
)

_MISSING = object()


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, parent index, start, end]
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []
        self.program_before: Optional[Dict[str, float]] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        record = [name, stack[-1] if stack else None, time.perf_counter(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            record[3] = time.perf_counter()

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        count: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a *layer* span around every call of ``owner.attr``.

        *count*, when given, is called with the call's arguments before the
        call to accumulate work counters.
        """
        own = vars(owner).get(attr, _MISSING) if isinstance(owner, type) else _MISSING
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(tracer.counters, *args, **kwargs)
            with tracer.span(layer):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if isinstance(owner, type) and own is _MISSING:
                delattr(owner, attr)  # the wrapper shadowed an inherited method
            else:
                setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer, each span minus the spans it directly caused."""
        totals: Dict[str, float] = defaultdict(float)
        for name, parent, start, end in self.spans:
            if end is None:
                continue
            duration = end - start
            totals[name] += duration
            if parent is not None:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def inclusive(self, name: str) -> float:
        return sum(
            end - start
            for span_name, _, start, end in self.spans
            if span_name == name and end is not None
        )


def _count_map_parallel(counters, engine, rasters, *args, **kwargs) -> None:
    batch, timesteps = rasters[0].shape[:2]
    counters["neuron_steps"] += engine.n_unique_rows * batch * timesteps * engine.n_neurons
    counters["rows"] += engine.n_rows
    counters["unique_rows"] += engine.n_unique_rows


def _count_batched(counters, engine, rasters, *args, **kwargs) -> None:
    batch, timesteps = rasters.shape[:2]
    counters["neuron_steps"] += batch * timesteps * engine.network.n_neurons
    counters["rows"] += 1
    counters["unique_rows"] += 1


def program_counters() -> Dict[str, float]:
    """The program's own in-process engine and kernel counters."""
    from repro.obs.metrics import get_registry

    registry = get_registry()
    backends = ("numpy", "numba")

    def kernel_calls(kernel: str) -> float:
        return sum(
            registry.value("softsnn_kernel_calls_total", kernel=kernel, backend=backend)
            for backend in backends
        )

    return {
        "snn.engine.latch_resims": sum(
            registry.value("softsnn_engine_latch_resimulations_total", engine=engine)
            for engine in ("batched", "map_parallel")
        ),
        "snn.kernels.gemm_calls": kernel_calls("register_gemm"),
        "snn.kernels.advance_calls": kernel_calls("lif_advance"),
        "snn.kernels.autotune_batch": max(
            registry.value("softsnn_autotune_batch_size", backend=backend)
            for backend in backends
        ),
    }


def install_layers(tracer: Tracer) -> None:
    """Wrap the boundaries of every in-process layer (see BUDGET_LAYERS).

    Also snapshots :func:`program_counters`, so the counter deltas of the
    traced phase can be taken once it ends.
    """
    tracer.program_before = program_counters()
    import repro.core.mitigation as mitigation
    import repro.eval.pool as pool
    import repro.snn.engine as engine
    import repro.snn.synapse as synapse
    from repro.eval.store import ResultStore
    from repro.faults.fault_map import FaultMapGenerator
    from repro.faults.injector import FaultInjector
    from repro.snn.encoding import PoissonEncoder, TTFSEncoder
    from repro.snn.inference import InferenceEngine
    from repro.snn.models import available_models, get_model

    tracer.wrap(pool, "prepare_unit_inputs", "eval.campaign.prepare")
    tracer.wrap(ResultStore, "append_cell", "eval.store")
    tracer.wrap(FaultMapGenerator, "generate", "faults")
    tracer.wrap(FaultInjector, "apply_fault_map", "faults")
    for encoder in (PoissonEncoder, TTFSEncoder):
        tracer.wrap(encoder, "encode_batch", "snn.encoding")

    tracer.wrap(mitigation, "prepare_map_assets", "core.mitigation")
    for technique in (
        mitigation.MitigationTechnique,
        mitigation.NoMitigation,
        mitigation.ReExecutionTMR,
        mitigation.BnPTechnique,
    ):
        for attr in ("evaluate", "plan_rows", "combine_row_results"):
            if attr in vars(technique):
                tracer.wrap(technique, attr, "core.mitigation")

    tracer.wrap(mitigation, "evaluate_rows", "snn.inference")
    tracer.wrap(InferenceEngine, "evaluate", "snn.inference")

    tracer.wrap(engine.MapParallelEngine, "__init__", "snn.engine")
    tracer.wrap(
        engine.MapParallelEngine, "run_encoded", "snn.engine", count=_count_map_parallel
    )
    tracer.wrap(engine.BatchedInferenceEngine, "run", "snn.engine")
    tracer.wrap(
        engine.BatchedInferenceEngine, "run_encoded", "snn.engine", count=_count_batched
    )

    for module in (engine, synapse):
        tracer.wrap(module, "register_gemm", "snn.kernels.gemm")
        tracer.wrap(module, "exact_scale", "snn.kernels.scale")
    tracer.wrap(engine, "bounding_correction_terms", "snn.kernels.bounding")
    tracer.wrap(engine, "apply_bounding_correction", "snn.kernels.bounding")
    for model_class in {type(get_model(name)) for name in available_models()}:
        tracer.wrap(model_class, "advance", "snn.kernels.advance")


def install_setup_layers(tracer: Tracer) -> None:
    """Wrap data generation and training, the two halves of model set-up."""
    import repro.eval.experiment as experiment

    tracer.wrap(experiment, "prepare_datasets", "setup.data")
    tracer.wrap(experiment.ExperimentRunner, "prepare", "setup.train")
