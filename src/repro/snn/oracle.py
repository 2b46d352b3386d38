"""Sequential reference inference: the oracle the engine is verified against.

These per-image, per-timestep loops are the original simulation of the
paper's network — one :meth:`~repro.snn.neuron.LIFNeuronGroup.step` per
timestep with currents from the crossbar's current operator.  They are far
slower than :mod:`repro.snn.engine` and exist only so the parity suites and
benches can check the engine spike for spike; no production path imports
this module.

Unlike the engine, the oracle also accepts a dense float ``effective_weights``
matrix (the pre-register "legacy" arithmetic some benches time).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.data.datasets import Dataset
from repro.snn.inference import InferenceEngine, InferenceResult
from repro.snn.network import DiehlCookNetwork, SampleResult
from repro.snn.neuron import LIFNeuronGroup
from repro.snn.synapse import EffectiveWeights
from repro.utils.rng import RNGLike, resolve_rng

__all__ = ["present_sequential", "evaluate_sequential"]

#: Sequential step-monitor hook: called with the live neuron group.
SequentialMonitor = Callable[[LIFNeuronGroup], None]


def present_sequential(
    network: DiehlCookNetwork,
    image: np.ndarray,
    rng: RNGLike = None,
    effective_weights: EffectiveWeights = None,
    step_monitor: Optional[SequentialMonitor] = None,
) -> SampleResult:
    """Present one image for inference through the per-timestep loop.

    Consumes *rng* exactly like :meth:`DiehlCookNetwork.present` and
    leaves the network's neuron group in the same final state.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.size != network.n_inputs:
        raise ValueError(
            f"image has {image.size} pixels but the network expects "
            f"{network.n_inputs}"
        )
    raster = network.encoder.encode(image.reshape(-1), rng=resolve_rng(rng))
    network.neurons.reset_state()
    operator = network.synapses.current_operator(effective_weights)

    output_spikes = np.zeros((raster.shape[0], network.n_neurons), dtype=bool)
    for t, pre_spikes in enumerate(raster):
        current = operator.compute(pre_spikes[np.newaxis, :])[0]
        output_spikes[t] = network.neurons.step(current, learning=False)
        if step_monitor is not None:
            step_monitor(network.neurons)

    return SampleResult(
        spike_counts=output_spikes.sum(axis=0).astype(np.int64),
        output_spikes=output_spikes,
        input_spike_count=int(raster.sum()),
    )


def evaluate_sequential(
    engine: InferenceEngine,
    dataset: Dataset,
    rng: RNGLike = None,
    effective_weights: EffectiveWeights = None,
    step_monitor: Optional[SequentialMonitor] = None,
) -> InferenceResult:
    """Classify *dataset* image by image: the reference for ``evaluate``."""
    if len(dataset) == 0:
        raise ValueError("evaluation dataset must not be empty")
    generator = resolve_rng(rng)
    network = engine.network
    predictions = np.zeros(len(dataset), dtype=np.int64)
    spike_counts = np.zeros((len(dataset), network.n_neurons), dtype=np.int64)
    per_sample_output = []
    total_input_spikes = 0

    for index, (image, _) in enumerate(dataset):
        sample = present_sequential(
            network,
            image,
            rng=generator,
            effective_weights=effective_weights,
            step_monitor=step_monitor,
        )
        predictions[index] = engine.classify_counts(sample.spike_counts)
        spike_counts[index] = sample.spike_counts
        per_sample_output.append(sample.total_output_spikes)
        total_input_spikes += sample.input_spike_count

    return InferenceResult(
        predictions=predictions,
        labels=dataset.labels.copy(),
        spike_counts=spike_counts,
        total_input_spikes=total_input_spikes,
        per_sample_output_spikes=per_sample_output,
    )
