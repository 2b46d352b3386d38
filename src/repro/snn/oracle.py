"""Sequential references: the oracles the engines are verified against.

Production code runs the network as a spec — a
:class:`~repro.snn.network.NetworkConfig` plus weight registers and
neuron-operation status — through :mod:`repro.snn.engine` and
:mod:`repro.snn.training`.  This module holds the other side of that
split: the network object family
(:class:`~repro.snn.network.DiehlCookNetwork`, built here) and the
per-image, per-timestep loops that simulate it, one
:meth:`~repro.snn.neuron.LIFNeuronGroup.step` per timestep.  They are far
slower than the engines and exist so the parity suites and benches can
check the engines spike for spike and weight for weight; the serving smoke
check (``python -m repro.server smoke``) is their one caller outside the
tests and benches, using the inference oracle as its reference.  They
record no telemetry.  They are also the only place a per-timestep
monitor exists: ``step_monitor`` (a
:class:`~repro.core.bound_and_protect.NeuronProtection`) is the reference
the engine's inline protection trigger is verified against.

* :func:`build_network` — a fresh inference network loaded with a trained
  model's deployed registers (the network the engines' planned rows
  stand for).
* :func:`present_sequential` / :func:`evaluate_sequential` — inference,
  with currents from the crossbar's current operator.  Unlike the engine,
  they also accept a dense float ``effective_weights`` matrix (the
  pre-register "legacy" arithmetic some benches time).
* :func:`train_sequential` — training: per-timestep pair STDP through
  :class:`~repro.snn.stdp.STDPRule`, winner-take-all learning through
  batch-of-one presentations, and per-sample spiking label assignment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.data.datasets import Dataset
from repro.snn.inference import InferenceEngine, InferenceResult
from repro.snn.network import DiehlCookNetwork, NetworkConfig, SampleResult
from repro.snn.neuron import LIFNeuronGroup
from repro.snn.stdp import STDPRule
from repro.snn.synapse import EffectiveWeights
from repro.snn.training import (
    TrainedModel,
    TrainingRunner,
    neuron_labels_from_responses,
    wta_sample_update,
)
from repro.utils.rng import RNGLike, resolve_rng

__all__ = [
    "build_network",
    "present_sequential",
    "evaluate_sequential",
    "train_sequential",
]

#: Sequential step-monitor hook: called with the live neuron group.
SequentialMonitor = Callable[[LIFNeuronGroup], None]


def build_network(model: TrainedModel, rng: RNGLike = None) -> DiehlCookNetwork:
    """Instantiate a fresh inference network loaded with *model*'s parameters.

    The network uses the deployed 8-bit register format (full scale set to
    twice the clean maximum weight unless the configuration pins it
    explicitly), so fault injection acts on exactly the registers
    :func:`repro.core.mitigation.prepare_map_assets` plans rows from.  Its
    construction draws random initial weights from *rng* that the trained
    ones overwrite (the production paths discard the same draw).  Every
    call returns an independent network.
    """
    quantizer = model.network_config.make_quantizer(model.clean_max_weight)
    network = DiehlCookNetwork(
        config=model.network_config, rng=rng, quantizer=quantizer
    )
    network.synapses.set_weights(np.clip(model.weights, 0.0, quantizer.full_scale))
    network.neurons.theta = model.theta.copy()
    return network


def _training_network(
    config: NetworkConfig, generator: np.random.Generator
) -> DiehlCookNetwork:
    """Fresh training network in the high-precision learning format."""
    return DiehlCookNetwork(
        config=config, rng=generator, quantizer=config.make_training_quantizer()
    )


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
        total_input_spikes += sample.input_spike_count

    return InferenceResult(
        predictions=predictions,
        labels=dataset.labels.copy(),
        spike_counts=spike_counts,
        total_input_spikes=total_input_spikes,
    )


# --------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------- #
def train_sequential(
    runner: TrainingRunner, dataset: Dataset, rng: RNGLike = None
) -> TrainedModel:
    """Train *runner*'s configuration through the per-timestep reference.

    Under the same *rng* the returned model's weights, neuron labels,
    theta, clean-weight statistics and history are bit-identical to
    :meth:`TrainingRunner.train`'s, and the generator is left in the same
    state.  Input validation, the epoch order, fast label assignment and
    model assembly are the runner's own; the training network and its
    presentation loop are built here.
    """
    generator = runner._check_inputs(dataset, rng)
    mode = runner.training_config.learning_mode
    if mode == "pairwise_stdp":
        weights, history = _train_pairwise_stdp(runner, dataset, generator)
    else:
        weights, history = _train_wta(
            runner, dataset, generator, spiking=(mode == "spiking_wta")
        )
    if runner.training_config.label_assignment_mode == "spiking":
        neuron_labels = assign_labels_sequential(runner, weights, dataset, generator)
    else:
        neuron_labels = runner._assign_labels_fast(weights, dataset)
    return runner._trained_model(weights, neuron_labels, history)


def _train_pairwise_stdp(
    runner: TrainingRunner,
    dataset: Dataset,
    generator: np.random.Generator,
) -> Tuple[np.ndarray, Dict[str, list]]:
    """Per-timestep pair-based STDP (the classical rule)."""
    config = runner.training_config
    network = _training_network(runner.network_config, generator)
    network.normalize_weights(config.weight_norm_total)
    rule = STDPRule(network.n_inputs, network.n_neurons, network.config.stdp)

    history: Dict[str, list] = {"epoch_mean_spikes": []}
    for _ in range(config.epochs):
        epoch_spikes: List[int] = []
        for index in runner._epoch_order(len(dataset), generator):
            image, _ = dataset[int(index)]
            epoch_spikes.append(_present_learning(network, rule, image, generator))
            network.normalize_weights(config.weight_norm_total)
        history["epoch_mean_spikes"].append(float(np.mean(epoch_spikes)))
    return network.synapses.weights, history


def _present_learning(
    network: DiehlCookNetwork,
    rule: STDPRule,
    image: np.ndarray,
    generator: np.random.Generator,
) -> int:
    """One training presentation; returns the total output spike count.

    The weights change between timesteps, so every step accumulates
    currents from the dense float training weights, advances the neuron
    group with threshold adaptation on, and applies one full STDP step.
    """
    raster = network.encoder.encode(image.reshape(-1), rng=generator)
    network.neurons.reset_state()
    rule.reset_traces()

    weights = network.synapses.weights
    output_spikes = 0
    for pre_spikes in raster:
        current = pre_spikes.astype(np.float64) @ weights
        post_spikes = network.neurons.step(current, learning=True)
        output_spikes += int(post_spikes.sum())
        weights = rule.step(weights, pre_spikes, post_spikes)
    network.synapses.set_weights(weights)
    return output_spikes


def _train_wta(
    runner: TrainingRunner,
    dataset: Dataset,
    generator: np.random.Generator,
    spiking: bool,
) -> Tuple[np.ndarray, Dict[str, list]]:
    """Sample-level winner-take-all learning, one network presentation each.

    The per-sample update is the runner's own
    :func:`~repro.snn.training.wta_sample_update`, so this reference and
    :meth:`TrainingRunner.train_wta` differ only in how a sample is
    presented.
    """
    config = runner.training_config
    network_config = runner.network_config
    n_neurons = network_config.n_neurons

    network = _training_network(network_config, generator)
    network.normalize_weights(config.weight_norm_total)
    weights = network.synapses.weights
    conscience = np.zeros(n_neurons, dtype=np.float64)
    wins = np.zeros(n_neurons, dtype=np.int64)

    history: Dict[str, list] = {"epoch_neurons_used": [], "epoch_mean_spikes": []}
    for _ in range(config.epochs):
        epoch_spikes: List[int] = []
        for index in runner._epoch_order(len(dataset), generator):
            image, _ = dataset[int(index)]
            flat = image.reshape(-1)
            if spiking:
                network.synapses.set_weights(weights)
                network.neurons.theta = conscience.copy()
                result = network.present(image, rng=generator)
                epoch_spikes.append(result.total_output_spikes)
                responses = result.spike_counts.astype(np.float64)
                if responses.max() <= 0:
                    # Silent presentation: fall back to the linear response
                    # so every sample still contributes.
                    responses = flat @ weights - conscience
            else:
                responses = flat @ weights - conscience
                epoch_spikes.append(0)
            weights = wta_sample_update(
                weights, conscience, wins, flat, responses, config
            )
        history["epoch_neurons_used"].append(int((wins > 0).sum()))
        history["epoch_mean_spikes"].append(
            float(np.mean(epoch_spikes)) if epoch_spikes else 0.0
        )
    weights = np.clip(weights, 0.0, network_config.stdp.w_max)
    return weights.reshape(network_config.n_inputs, n_neurons), history


def assign_labels_sequential(
    runner: TrainingRunner,
    weights: np.ndarray,
    dataset: Dataset,
    rng: RNGLike = None,
) -> np.ndarray:
    """Spiking label assignment, one presentation per labelled image.

    The reference for :meth:`TrainingRunner.assign_labels_spiking` at any
    batch size.
    """
    generator = resolve_rng(rng)
    network = _training_network(runner.network_config, generator)
    network.synapses.set_weights(weights)
    spike_counts = np.stack(
        [network.present(image, rng=generator).spike_counts for image, _ in dataset]
    )
    return neuron_labels_from_responses(
        spike_counts,
        dataset.labels,
        dataset.n_classes,
        runner.training_config.label_smoothing,
    )
