"""Inference (classification) with a trained, possibly faulty, network.

The inference engine presents test images to a network built from a
:class:`~repro.snn.training.TrainedModel`, converts per-neuron spike counts
into class votes through the neuron labels, and reports accuracy.  All
SoftSNN experiments run through this engine: fault injection only changes
the network the engine is given (corrupted registers and/or neuron operation
status), and a mitigation only changes what an engine row runs under — a
:class:`~repro.snn.engine.MapRow`'s weight rule and protection trigger,
evaluated through :func:`evaluate_rows`.

Datasets are classified in configurable chunks through the one inference
engine, :class:`~repro.snn.engine.MapParallelEngine` (a single network is
its one-row case); the original per-image loop lives in
:mod:`repro.snn.oracle`, the reference the engine is verified against
spike for spike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence

import numpy as np

from repro.data.datasets import Dataset
from repro.snn.engine import (
    DEFAULT_BATCH_SIZE,
    MapParallelEngine,
    MapRow,
    flatten_images,
    protection_counts,
)
from repro.snn.network import DiehlCookNetwork
from repro.snn.neuron import LIFParameters
from repro.snn.quantization import WeightQuantizer
from repro.utils.rng import RNGLike, resolve_rng

__all__ = [
    "InferenceResult",
    "InferenceEngine",
    "StreamedRaster",
    "class_indicator",
    "evaluate_rows",
]

#: Sample-chunk cap of the map-parallel evaluation path.  Results are
#: bit-identical for any chunking (the faulty-reset latch carry reproduces
#: the sequential per-sample semantics exactly), so the chunk is a pure
#: performance choice: shorter chunks shorten the suffixes the latch
#: fix-up re-simulates, and keep the chunk's kept ``(timesteps, chunk,
#: neurons)`` register-code accumulators — one per base GEMM and per
#: bounding-correction term — small when many rows share one pass.  The
#: float64 currents are never materialised for the whole chunk: the engine
#: scales one timestep block at a time, and a 16-sample chunk makes that
#: block 64 timesteps (:data:`repro.snn.engine.BLOCK_GEMM_ROWS`).  A pass
#: over one distinct engine keeps the caller's chunk, as
#: :meth:`InferenceEngine.evaluate` does.
MAP_PARALLEL_CHUNK_SIZE = 16


def class_indicator(neuron_labels: np.ndarray) -> np.ndarray:
    """Return the ``(n_neurons, n_classes)`` class-indicator vote matrix.

    Multiplying integer-valued spike counts by this matrix in float64 sums
    them exactly, so matmul-based classification is bitwise identical to
    summing each class's neuron counts per sample.
    """
    neuron_labels = np.asarray(neuron_labels, dtype=np.int64)
    n_neurons = int(neuron_labels.size)
    n_classes = int(neuron_labels.max()) + 1 if neuron_labels.size else 0
    indicator = np.zeros((n_neurons, n_classes), dtype=np.float64)
    if n_classes:
        indicator[np.arange(n_neurons), neuron_labels] = 1.0
    return indicator


@dataclass
class InferenceResult:
    """Aggregate outcome of classifying a dataset.

    Attributes
    ----------
    predictions:
        Predicted class id per sample.
    labels:
        Ground-truth class id per sample.
    spike_counts:
        Per-sample, per-neuron output spike counts, shape
        ``(n_samples, n_neurons)``.
    total_input_spikes:
        Total number of input spikes delivered across the whole dataset
        (activity statistic consumed by the energy model).
    bounded_synapses / protected_neurons / protection_activations:
        What Bound-and-Protect did (filled by :func:`evaluate_rows`):
        synapses the weight rule bounds, neurons protection gated off, and
        gated (sample, neuron) pairs — the counts of a
        :class:`~repro.core.bound_and_protect.NeuronProtection` monitor.
    """

    predictions: np.ndarray
    labels: np.ndarray
    spike_counts: np.ndarray
    total_input_spikes: int = 0
    bounded_synapses: int = 0
    protected_neurons: FrozenSet[int] = frozenset()
    protection_activations: int = 0

    def __post_init__(self) -> None:
        self.predictions = np.asarray(self.predictions, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.spike_counts = np.asarray(self.spike_counts, dtype=np.int64)
        if self.predictions.shape != self.labels.shape:
            raise ValueError("predictions and labels must have the same shape")

    @property
    def n_samples(self) -> int:
        """Number of classified samples."""
        return int(self.predictions.size)

    @property
    def accuracy(self) -> float:
        """Fraction of correctly classified samples, in ``[0, 1]``."""
        if self.n_samples == 0:
            return 0.0
        return float(np.mean(self.predictions == self.labels))

    @property
    def accuracy_percent(self) -> float:
        """Accuracy expressed in percent, as reported in the paper's figures."""
        return 100.0 * self.accuracy

    def confusion_matrix(self, n_classes: Optional[int] = None) -> np.ndarray:
        """Return the ``(n_classes, n_classes)`` confusion matrix."""
        if n_classes is None:
            upper = 0
            if self.labels.size:
                upper = int(max(self.labels.max(), self.predictions.max()))
            n_classes = upper + 1
        matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
        for truth, predicted in zip(self.labels, self.predictions):
            matrix[truth, predicted] += 1
        return matrix

    @property
    def mean_output_spikes_per_sample(self) -> float:
        """Average number of excitatory output spikes per classified sample."""
        if self.spike_counts.size == 0:
            return 0.0
        return float(self.spike_counts.sum(axis=1).mean())


class InferenceEngine:
    """Classify datasets with a (possibly fault-injected) network.

    Parameters
    ----------
    network:
        The network to run; typically built via
        :meth:`repro.snn.training.TrainedModel.build_network` and then
        corrupted by a fault injector.
    neuron_labels:
        Class label assigned to each excitatory neuron during training.
    """

    def __init__(self, network: DiehlCookNetwork, neuron_labels: np.ndarray) -> None:
        neuron_labels = np.asarray(neuron_labels, dtype=np.int64)
        if neuron_labels.shape != (network.n_neurons,):
            raise ValueError(
                f"neuron_labels must have shape ({network.n_neurons},), "
                f"got {neuron_labels.shape}"
            )
        self.network = network
        self.neuron_labels = neuron_labels
        self._n_classes = int(neuron_labels.max()) + 1 if neuron_labels.size else 0
        # Class-indicator matrix turning batched spike counts into votes
        # with one exact (integer-valued) matmul.
        self._class_indicator = class_indicator(neuron_labels)

    # ------------------------------------------------------------------ #
    def classify_counts(self, spike_counts: np.ndarray) -> int:
        """Convert one sample's per-neuron spike counts into a class vote.

        The predicted class is the one whose assigned neurons produced the
        most spikes in total; ties resolve to the lowest class id, and a
        completely silent network predicts class 0 (an arbitrary but
        deterministic fallback, counted as an error unless the truth is 0).
        """
        spike_counts = np.asarray(spike_counts, dtype=np.float64)
        if spike_counts.shape != (self.network.n_neurons,):
            raise ValueError(
                f"spike_counts must have shape ({self.network.n_neurons},), "
                f"got {spike_counts.shape}"
            )
        votes = np.zeros(self._n_classes, dtype=np.float64)
        for cls in range(self._n_classes):
            mask = self.neuron_labels == cls
            if mask.any():
                votes[cls] = spike_counts[mask].sum()
        return int(np.argmax(votes))

    def classify_batch(self, spike_counts: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`classify_counts` for ``(n_samples, n_neurons)``.

        The class-indicator matmul sums integer-valued spike counts in
        float64, which is exact, so the predictions are bitwise identical
        to calling :meth:`classify_counts` per row.
        """
        spike_counts = np.asarray(spike_counts, dtype=np.float64)
        if spike_counts.ndim != 2 or spike_counts.shape[1] != self.network.n_neurons:
            raise ValueError(
                "spike_counts must have shape "
                f"(n_samples, {self.network.n_neurons}), got {spike_counts.shape}"
            )
        votes = spike_counts @ self._class_indicator
        return np.argmax(votes, axis=1).astype(np.int64)

    def evaluate(
        self,
        dataset: Dataset,
        rng: RNGLike = None,
        batch_size: Optional[int] = None,
    ) -> InferenceResult:
        """Classify every sample of *dataset* and aggregate the results.

        The dataset is processed in chunks of ``batch_size`` samples through
        the network's one-row :class:`~repro.snn.engine.MapParallelEngine`;
        the faulty-reset latch state is carried from chunk to chunk so the
        sequential sample-order semantics are preserved, and the neuron
        group is left in the same final state the per-image reference loop
        (:func:`repro.snn.oracle.evaluate_sequential`) would leave it in.

        The network runs as it is, unmitigated: Bound-and-Protect reaches
        the engine only as a planned row
        (:meth:`~repro.core.mitigation.BnPTechnique.plan_rows`,
        :func:`evaluate_rows`).

        ``batch_size=None`` means :data:`repro.snn.kernels.DEFAULT_BATCH_SIZE`;
        results are bit-identical for any chunking.
        """
        if len(dataset) == 0:
            raise ValueError("evaluation dataset must not be empty")
        network = self.network
        if batch_size is None:
            batch_size = DEFAULT_BATCH_SIZE
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        n_samples = len(dataset)
        generator = resolve_rng(rng)
        images = flatten_images(dataset.images, network.n_inputs)
        predictions = np.zeros(n_samples, dtype=np.int64)
        spike_counts = np.zeros((n_samples, network.n_neurons), dtype=np.int64)
        total_input_spikes = 0

        engine = MapParallelEngine.for_network(network)
        latch = network.neurons.reset_fault_latched[np.newaxis].copy()
        for start in range(0, n_samples, batch_size):
            stop = min(start + batch_size, n_samples)
            chunk = network.encoder.encode_batch(
                images[start:stop, np.newaxis, :], rng=generator
            )
            result = engine.run_encoded([chunk], initial_reset_latch=latch)
            latch = result.final_reset_latch
            predictions[start:stop] = self.classify_batch(result.spike_counts[0])
            spike_counts[start:stop] = result.spike_counts[0]
            total_input_spikes += int(result.input_spike_counts.sum())

        network.sync_neuron_state(result.final_state.row(0), latch[0])
        return InferenceResult(
            predictions=predictions,
            labels=dataset.labels.copy(),
            spike_counts=spike_counts,
            total_input_spikes=total_input_spikes,
        )


class StreamedRaster:
    """One cell's raster group, Poisson-encoded one sample chunk at a time.

    :func:`evaluate_rows` reads a raster group chunk by chunk, in sample
    order; this group encodes each chunk on that first read, from the
    cell's generator, so only one chunk's spike raster exists at a time.
    The encoder draws sample-major, so the chunks equal the slices of a
    one-shot encode of the whole test set.  A group is read once: reading
    it again (say, executing the same unit twice) raises ``ValueError``
    instead of encoding a different stream.

    Parameters
    ----------
    encoder:
        The model's spike encoder (``encode_batch``).
    images:
        Flattened test images ``(n_samples, n_inputs)``.
    generator:
        The cell's generator, positioned where the encoding starts.
    """

    def __init__(self, encoder, images: np.ndarray, generator: np.random.Generator):
        self._encoder = encoder
        self._images = images[:, np.newaxis, :]
        self._generator = generator
        self._encoded = 0

    def __len__(self) -> int:
        return len(self._images)

    def __getitem__(self, chunk: slice) -> np.ndarray:
        if chunk.start != self._encoded:
            raise ValueError("a streamed raster is read once, in sample order")
        self._encoded = chunk.stop
        return self._encoder.encode_batch(self._images[chunk], rng=self._generator)


def evaluate_rows(
    rows: Sequence[MapRow],
    rasters: Sequence,
    neuron_labels: np.ndarray,
    labels: np.ndarray,
    quantizer: WeightQuantizer,
    params: LIFParameters,
    theta: np.ndarray,
    batch_size: Optional[int] = None,
    model: Optional[object] = None,
) -> List[InferenceResult]:
    """Classify raster groups through many compute engines at once.

    This is the map-parallel counterpart of :meth:`InferenceEngine.evaluate`:
    each :class:`~repro.snn.engine.MapRow` stands for one (possibly
    fault-injected, possibly mitigated) compute engine, and all rows advance
    together through the :class:`~repro.snn.engine.MapParallelEngine` in
    sample chunks of ``batch_size``, carrying each row's faulty-reset latch
    from chunk to chunk.  Per row, the returned
    :class:`InferenceResult` is bit-identical to evaluating that row's
    engine alone over the same rasters.

    Parameters
    ----------
    rows:
        Compute-engine rows to evaluate (see
        :class:`~repro.snn.engine.MapRow`).
    rasters:
        One raster group per encoding group referenced by the rows: a
        boolean spike raster ``(n_samples, timesteps, n_inputs)``, or any
        object with ``len()`` (its sample count) whose ``[start:stop]``
        slice returns those samples' raster.  Each group is sliced once
        per chunk, in sample order, so a group may encode on demand
        (:class:`StreamedRaster`).
    neuron_labels:
        Class label of each excitatory neuron (shared by all rows — they
        all simulate the same trained model).
    labels:
        Ground-truth class per sample, copied into every result.
    quantizer / params / theta:
        Register format, LIF parameters and frozen adaptive thresholds
        shared by all rows.
    batch_size:
        Upper bound on the samples advanced per chunk; ``None`` uses the
        engine default.  When the rows hold more than one distinct engine
        the effective chunk is additionally capped at
        :data:`MAP_PARALLEL_CHUNK_SIZE` — a pure performance choice, the
        results are bit-identical for any chunking.
    model:
        Neuron model every row simulates (registered name,
        :class:`~repro.snn.models.NeuronModel` instance, or ``None`` for
        the default LIF), forwarded to the map-parallel engine.
    """
    if not rows:
        raise ValueError("at least one row is required")
    if not rasters:
        raise ValueError("at least one raster group is required")
    n_samples = len(rasters[0])
    for raster in rasters:
        if len(raster) != n_samples:
            raise ValueError("all raster groups must cover the same samples")
    if n_samples == 0:
        raise ValueError("evaluation rasters must not be empty")
    if batch_size is None:
        batch_size = DEFAULT_BATCH_SIZE
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n_samples,):
        raise ValueError(
            f"labels must have shape ({n_samples},), got {labels.shape}"
        )

    engine = MapParallelEngine(
        rows, quantizer=quantizer, params=params, theta=theta, model=model
    )
    if engine.n_unique_rows > 1:
        batch_size = min(batch_size, MAP_PARALLEL_CHUNK_SIZE)
    n_rows = engine.n_rows
    n_neurons = engine.n_neurons
    indicator = class_indicator(neuron_labels)

    predictions = np.zeros((n_rows, n_samples), dtype=np.int64)
    spike_counts = np.zeros((n_rows, n_samples, n_neurons), dtype=np.int64)
    group_input_counts = np.zeros((len(rasters), n_samples), dtype=np.int64)
    # Neuron-protection statistics per distinct row, accumulated from each
    # chunk's spike gates.
    activations = np.zeros(engine.n_unique_rows, dtype=np.int64)
    protected = np.zeros((engine.n_unique_rows, n_neurons), dtype=bool)

    latch = np.zeros((n_rows, n_neurons), dtype=bool)
    for start in range(0, n_samples, batch_size):
        stop = min(start + batch_size, n_samples)
        chunk = engine.run_encoded(
            [raster[start:stop] for raster in rasters],
            initial_reset_latch=latch,
        )
        latch = chunk.final_reset_latch
        spike_counts[:, start:stop] = chunk.spike_counts
        votes = chunk.spike_counts.astype(np.float64) @ indicator
        predictions[:, start:stop] = np.argmax(votes, axis=-1).astype(np.int64)
        group_input_counts[:, start:stop] = chunk.input_spike_counts
        gated, gated_neurons = protection_counts(chunk.final_state.spike_disabled)
        activations += gated
        protected |= gated_neurons

    results: List[InferenceResult] = []
    for m, row in enumerate(rows):
        unique = engine.row_to_unique[m]
        results.append(
            InferenceResult(
                predictions=predictions[m],
                labels=labels.copy(),
                spike_counts=spike_counts[m],
                total_input_spikes=int(group_input_counts[row.raster_index].sum()),
                bounded_synapses=int(engine.bounded_synapses[m]),
                protected_neurons=frozenset(
                    np.flatnonzero(protected[unique]).tolist()
                ),
                protection_activations=int(activations[unique]),
            )
        )
    return results
